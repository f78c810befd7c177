"""Invariants of the leximin solver on random blocks of 2-10 items, some
with hard (zero-spread) sides, and regressions for blocks that once failed;
and of feasible_at's max-slack LP."""

import collections
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from fahp import (
    TFN,
    ComparisonJudgment,
    ComparisonMatrix,
    InfeasibleJudgmentsError,
    ValidationError,
    bundled_study_path,
    feasible_at,
    lambda_at,
    load_study,
    simplex,
    solve_fpp,
    solver,
)
from fahp.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "roundoff"
# The HiGHS judges keep every weight at this or above. HiGHS's primal
# tolerance is 1e-7, so on smaller weights it reports feasible levels that
# are not: contradictory_103_267 1e-5 * |lambda| above its optimum. A lower
# bound is passed for one call only, to check that a level is infeasible.
HIGHS_MIN_WEIGHT = 1e-6


def _random_block(rng, n, hard_share=0.15, crisp_share=0.0):
    """A complete block around a latent weight vector.

    Modes are the latent ratios times log-normal noise and the spreads are
    log-uniform. A hard side is placed on the latent side of its mode, and
    a crisp judgment (drawn first, with probability crisp_share) sits at the
    latent ratio, so the latent vector meets every hard side and the block
    is feasible. With no crisp share the draws are those of a block drawn
    before crisp judgments were added.
    """
    items = tuple(f"i{k}" for k in range(n))
    w = np.maximum(rng.dirichlet(np.full(n, 2.0)), 1e-2)
    judgments = []
    for a in range(n):
        for b in range(a + 1, n):
            ratio = w[a] / w[b]
            noise = float(rng.normal(0.0, 0.35))
            lo = math.exp(rng.uniform(math.log(0.05), math.log(0.8)))
            hi = math.exp(rng.uniform(math.log(0.05), math.log(0.8)))
            if crisp_share and rng.random() < crisp_share:
                value = TFN(ratio, ratio, ratio)
            elif rng.random() < hard_share:  # hard lower side: ratio >= l = m
                m = ratio * math.exp(-abs(noise))
                value = TFN(m, m, m * math.exp(hi))
            elif rng.random() < hard_share:  # hard upper side: ratio <= u = m
                m = ratio * math.exp(abs(noise))
                value = TFN(m * math.exp(-lo), m, m)
            else:
                m = ratio * math.exp(noise)
                value = TFN(m * math.exp(-lo), m, m * math.exp(hi))
            judgments.append(ComparisonJudgment(items[a], items[b], value))
    return ComparisonMatrix(parent="rnd", items=items, judgments=tuple(judgments))


def _blocks(seed=20261018):
    rng = np.random.default_rng(seed)
    return [_random_block(rng, n) for n in range(2, 11) for _ in range(4)]


def _lp_arrays(form):
    """Copies of the arrays of a simplex form: c, the inequality rows and
    the equality rows with their right-hand sides; a caller may rewrite its
    form in place between LPs."""
    n, ncols = form.c.size, form.ncols
    return dict(
        c=form.c.copy(),
        a_ub=form.g[n:ncols].copy(),
        b_ub=form.h[n:ncols].copy(),
        a_eq=form.g[ncols:].copy(),
        b_eq=form.h[ncols:].copy(),
    )


def _highs_max_slack(matrix, lam, min_weight=HIGHS_MIN_WEIGHT):
    """max t s.t. every judgment side + t <= 0 at level lam and w >=
    min_weight, by HiGHS."""
    idx = {it: i for i, it in enumerate(matrix.items)}
    n = len(matrix.items)
    rows = []
    for j in matrix.judgments:
        l, m, u = j.value.as_tuple()
        lower = np.zeros(n + 1)
        lower[idx[j.col]] = (m - l) * lam + l
        lower[idx[j.row]] = -1.0
        upper = np.zeros(n + 1)
        upper[idx[j.col]] = (u - m) * lam - u
        upper[idx[j.row]] = 1.0
        lower[n] = upper[n] = 1.0
        rows += [lower, upper]
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    cost = np.zeros(n + 1)
    cost[n] = -1.0
    res = linprog(
        cost,
        A_ub=np.array(rows),
        b_ub=np.zeros(len(rows)),
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(min_weight, None)] * n + [(None, None)],
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def _highs_slack(rows, scale):
    """max t s.t. rows @ w + t * scale <= 0, sum w = 1, w >= HIGHS_MIN_WEIGHT,
    by HiGHS."""
    k, n = rows.shape
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    cost = np.zeros(n + 1)
    cost[n] = -1.0
    res = linprog(
        cost,
        A_ub=np.column_stack([rows, scale]),
        b_ub=np.zeros(k),
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(HIGHS_MIN_WEIGHT, None)] * n + [(None, None)],
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def _side_rows(matrix, lam=0.0):
    """The dense row of each judgment side at level lam, in the solver's
    side order (judgment i has rising side 2i and falling side 2i + 1): the
    side holds when row @ w <= 0."""
    idx = {it: i for i, it in enumerate(matrix.items)}
    rows = np.zeros((2 * len(matrix.judgments), len(matrix.items)))
    for i, j in enumerate(matrix.judgments):
        l, m, u = j.value.as_tuple()
        r, c = idx[j.row], idx[j.col]
        rows[2 * i, c], rows[2 * i, r] = l + lam * (m - l), -1.0
        rows[2 * i + 1, c], rows[2 * i + 1, r] = -u + lam * (u - m), 1.0
    return rows


def _permuted(matrix, perm):
    """The block with item i renamed to item perm[i]."""
    relabel = {matrix.items[i]: matrix.items[perm[i]] for i in range(len(perm))}
    judgments = tuple(
        ComparisonJudgment(relabel[j.row], relabel[j.col], j.value)
        for j in matrix.judgments
    )
    return ComparisonMatrix(parent=matrix.parent, items=matrix.items, judgments=judgments)


def test_random_block_invariants():
    hard = negative = 0
    for block in _blocks():
        res = solve_fpp(block)
        assert abs(lambda_at(block, res.weights) - res.lambda_) <= 1e-12
        if res.lambda_ < 1.0:
            assert _highs_max_slack(block, res.lambda_ + 1e-6) < 0.0
        hard += any(j.value.l == j.value.m or j.value.m == j.value.u for j in block.judgments)
        negative += res.lambda_ < 0.0
    # the population exercises hard sides and inconsistent blocks
    assert hard >= 10 and negative >= 10


def test_solution_is_permutation_equivariant():
    # The optimal face of a large block is often more than a point; the
    # weights picked on it must not depend on the order of the items.
    rng = np.random.default_rng(7)
    for block in _blocks():
        perm = rng.permutation(len(block.items))
        relabel = {block.items[i]: block.items[perm[i]] for i in range(len(perm))}
        a, b = solve_fpp(block), solve_fpp(_permuted(block, perm))
        assert abs(a.lambda_ - b.lambda_) <= 1e-9
        for item in block.items:
            assert abs(b.weights[relabel[item]] - a.weights[item]) <= 1e-6


def _recording_lps(monkeypatch):
    """Record every LP that simplex._solve takes: (a copy of its arrays, the
    result, the final basis's column mask)."""
    seen, solve = [], simplex._solve

    def recorded(form, basic=None):
        lp = _lp_arrays(form)
        res, final = solve(form, basic)
        seen.append((lp, res, None if final is None else final.basic.copy()))
        return res, final

    monkeypatch.setattr(simplex, "_solve", recorded)
    return seen


def test_max_slack_reports_the_unshifted_slack(monkeypatch):
    # On the bundled blocks, the slack t of feasible_at's max-slack LP, at
    # lambda_cap and at the solved lambda, must be HiGHS's optimum on the
    # same rows with the same unit scale. (It once solved for t + theta, a
    # shift of 2.5e-6 to 1.5e-4 there, and subtracted it.)
    cfg = solver.SolverConfig()
    seen = _recording_lps(monkeypatch)
    for block in load_study(bundled_study_path()).hierarchy.matrices.values():
        res = solve_fpp(block)
        for lam in (cfg.lambda_cap, res.lambda_):
            feasible_at(block, lam)
            _, lp, _ = seen[-1]
            rows = _side_rows(block, lam)
            t = lp.x[-2] - lp.x[-1]
            assert abs(t - _highs_slack(rows, np.ones(len(rows)))) <= 1e-9


def test_block_below_minus_ten_without_hard_sides_solves():
    # a tight three-cycle: the equal weights are optimal at lambda = -19
    m = ComparisonMatrix(
        parent="cycle",
        items=("a", "b", "c"),
        judgments=tuple(
            ComparisonJudgment(r, c, TFN(1.95, 2.0, 2.05))
            for r, c in (("b", "a"), ("c", "b"), ("a", "c"))
        ),
    )
    res = solve_fpp(m)
    assert res.lambda_ == pytest.approx(-19.0, abs=1e-9)
    assert lambda_at(m, res.weights) == res.lambda_
    for w in res.weights.values():
        assert w == pytest.approx(1 / 3, abs=1e-9)


@pytest.mark.parametrize(
    "name", ["phase1_unbounded", "max_slack_infeasible", "lambda_at_gap"]
)
def test_roundoff_blocks_solve_to_the_optimum(name, tmp_path):
    path = FIXTURES / f"{name}.json"
    block = load_study(path).hierarchy.matrices["goal"]
    res = solve_fpp(block)
    assert lambda_at(block, res.weights) == res.lambda_
    assert _highs_max_slack(block, res.lambda_ + 1e-6) < 0.0
    out = tmp_path / "results.json"
    assert main(["solve", str(path), "--no-timestamp", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["blocks"]["goal"]["lambda"] == res.lambda_


# 10-item blocks whose modes are drawn log-uniformly from [1/9, 9] apart from
# any weight vector, log-spreads of 0.005-0.3 and a fifth of the sides hard,
# so that lambda is far below -100. Without the refinement step, the
# solutions missed a hard side by more than membership's tolerance: on
# contradictory_101_45 lambda_at gave -inf and the next LP raised, and contradictory_101_768 stopped at lambda -4213.0
# instead of -233.9. contradictory_103_267 raised "phase-1 simplex ended
# with status 'unbounded'" (before that, "simplex round-off: the basis is
# singular") when every LP was solved cold by the two-phase simplex; from
# the slack basis it solves cold too.
@pytest.mark.parametrize(
    "name", ["contradictory_101_45", "contradictory_101_768", "contradictory_103_267"]
)
def test_contradictory_blocks_solve_to_the_optimum(name):
    block = load_study(FIXTURES / f"{name}.json").hierarchy.matrices["goal"]
    res = solve_fpp(block)
    assert lambda_at(block, res.weights) == res.lambda_
    assert _highs_max_slack(block, res.lambda_ + 1e-5 * abs(res.lambda_)) < 0.0


def test_level_on_a_steep_root_solves():
    # steep_root: 7 items whose modes are log-uniform over [1e-3, 1e3], each
    # judgment (m/2, m, 2m). Its lambda* lies 1.5e-10 above -1, where the
    # rising bounds m/2 + lambda * m/2 all but vanish, so one ulp of lambda
    # moves their log weights by about 7e-7 and no float level brings a
    # stage's cycle within the pinning tolerance: the stages repeated at the
    # same level, without end, until the ends of the side that closes a
    # zero cycle first were pinned. The weights reach that level in either
    # item order. The smallest is 2.0e-8, so HiGHS judges the level above
    # with a lower bound below it. (A weight floor of 1e-6 held lambda at
    # -6.10.)
    block = load_study(FIXTURES / "steep_root.json").hierarchy.matrices["goal"]
    res = solve_fpp(block)
    assert -1.0 < res.lambda_ < -1.0 + 1e-9
    assert lambda_at(block, res.weights) == res.lambda_
    assert _highs_max_slack(block, res.lambda_ + 1e-6, min_weight=1e-12) < 0.0
    perm = list(range(len(block.items)))[::-1]
    moved = solve_fpp(_permuted(block, perm))
    assert abs(moved.lambda_ - res.lambda_) <= 1e-12
    for i, item in enumerate(block.items):
        assert abs(moved.weights[block.items[perm[i]]] - res.weights[item]) <= 1e-9


@pytest.mark.parametrize(
    "name, smallest",
    [
        pytest.param("floor_conflict_1_950", 1.6e-7, id="floor_conflict_1_950"),
        pytest.param("floor_conflict_1_1326", 1.7e-8, id="floor_conflict_1_1326"),
    ],
)
def test_hard_sides_that_ask_for_small_weights_hold(name, smallest):
    # Wide blocks of a sweep whose chains of hard sides ask for a weight
    # ratio that leaves some weight below 1e-6. The hard sides hold, and the
    # block solves to a finite lambda. (A weight floor of 1e-6 made both
    # raise InfeasibleJudgmentsError, and mixing the weights with that floor
    # after the search broke a hard side, with lambda -inf and no error.)
    block = load_study(FIXTURES / f"{name}.json").hierarchy.matrices["goal"]
    res = solve_fpp(block)
    assert lambda_at(block, res.weights) == res.lambda_ > -math.inf
    assert math.isclose(min(res.weights.values()), smallest, rel_tol=0.05)


def _chain(n):
    """n items, each judged (8e3, 9e3, 1e4) times the next: exactly
    consistent, with weights spanning 9e3 ** (n - 1)."""
    items = tuple(f"c{k}" for k in range(n))
    judgments = tuple(
        ComparisonJudgment(a, b, TFN(8e3, 9e3, 1e4)) for a, b in zip(items, items[1:])
    )
    return ComparisonMatrix(parent="goal", items=items, judgments=judgments)


def test_weights_a_float_can_hold_solve_and_others_exit_2(tmp_path, capsys):
    # 40 items span e^355: the block is clamped at lambda 1 at its
    # least-squares weights. (A weight floor of 1e-6 held it at -7.9986.)
    # 85 items span e^765, past the least normal float: the weights would
    # underflow to 0, and the next membership divided by zero (exit 1).
    res = solve_fpp(_chain(40))
    assert res.lambda_ == 1.0 and res.clamped
    assert math.isclose(min(res.weights.values()), 6.1e-155, rel_tol=0.01)
    with pytest.raises(ValidationError, match="matrix 'goal': .* span more"):
        solve_fpp(_chain(85))
    block = _chain(85)
    doc = {
        "name": "chain",
        "hierarchy": {"id": "goal", "children": [{"id": c} for c in block.items]},
        "matrices": {
            "goal": [
                {"row": j.row, "col": j.col, "judgment": list(j.value.as_tuple())}
                for j in block.judgments
            ]
        },
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 2
    assert "matrix 'goal'" in capsys.readouterr().err


def _crisp_cycle(ca):
    """Crisp (b, a) = 2, (c, b) = 3 and (c, a) = ca, with soft judgments on
    d."""
    return ComparisonMatrix(
        parent="x",
        items=("a", "b", "c", "d"),
        judgments=tuple(
            ComparisonJudgment(r, c, TFN(*t))
            for r, c, t in [
                ("b", "a", (2, 2, 2)),
                ("c", "b", (3, 3, 3)),
                ("c", "a", (ca, ca, ca)),
                ("d", "a", (1, 2, 3)),
                ("d", "b", (0.5, 1, 2)),
                ("d", "c", (0.2, 0.3, 0.5)),
            ]
        ),
    )


def test_hard_sides_within_the_membership_tolerance_hold():
    # (c, a) = 6 (1 + 5e-13) misses the product of the other two crisp
    # judgments by half of membership's 1e-12 relative tolerance, so weights
    # exist that meet all three to within it; a cycle test on the exact
    # bounds called them conflicting. A miss of 3e-12 is a conflict.
    block = _crisp_cycle(6 * (1 + 5e-13))
    res = solve_fpp(block)
    assert res.lambda_ == lambda_at(block, res.weights)
    assert res.lambda_ == pytest.approx(10 / 11, rel=1e-11)
    with pytest.raises(InfeasibleJudgmentsError) as exc:
        solve_fpp(_crisp_cycle(6 * (1 + 3e-12)))
    assert set(exc.value.pairs) == {("b", "a"), ("c", "b"), ("c", "a")}


def _contradictory_block(rng):
    """A complete block of 3-10 items whose modes ignore any weight vector.

    Modes are log-uniform in [1/9, 9], the log-spreads of the two sides are
    log-uniform in [0.005, 0.3], and a tenth of the judgments have a hard
    lower side (l = m) and another tenth a hard upper side (u = m). Block k
    drawn from rng seed 101 is the fixture contradictory_101_k.
    """
    n = int(rng.integers(3, 11))
    items = tuple(f"i{k}" for k in range(n))
    judgments = []
    for a in range(n):
        for b in range(a + 1, n):
            m = math.exp(rng.uniform(math.log(1 / 9), math.log(9)))
            lo = math.exp(rng.uniform(math.log(0.005), math.log(0.3)))
            hi = math.exp(rng.uniform(math.log(0.005), math.log(0.3)))
            draw = rng.random()
            if draw < 0.1:
                value = TFN(m, m, m * math.exp(hi))
            elif draw < 0.2:
                value = TFN(m * math.exp(-lo), m, m)
            else:
                value = TFN(m * math.exp(-lo), m, m * math.exp(hi))
            judgments.append(ComparisonJudgment(items[a], items[b], value))
    return ComparisonMatrix(parent="goal", items=items, judgments=tuple(judgments))


def test_infeasible_verdicts_agree_with_highs():
    # solve_fpp raises InfeasibleJudgmentsError exactly when the hard sides
    # close a negative cycle in log weights. HiGHS must agree on each block:
    # the hard sides cannot all hold exactly when the best slack over them
    # alone, with a unit scale, is negative.
    rng = np.random.default_rng(101)
    blocks = [_contradictory_block(rng) for _ in range(300)]
    fixture = load_study(FIXTURES / "contradictory_101_45.json").hierarchy.matrices
    assert blocks[45] == fixture["goal"]
    infeasible = 0
    for block in blocks:
        table = solver._block(block)
        base = _side_rows(block)
        hard = np.array(table.slope) == 0.0
        expected = hard.any() and _highs_slack(base[hard], np.ones(hard.sum())) < 0.0
        try:
            solve_fpp(block)
            raised = False
        except InfeasibleJudgmentsError:
            raised = True
        assert raised == expected
        infeasible += expected
    assert infeasible >= 15


def test_conflict_names_an_irreducible_set_in_either_order():
    # On the infeasible contradictory blocks, the pairs named by
    # InfeasibleJudgmentsError do not depend on the order of the items, their
    # hard sides cannot all hold by HiGHS, and dropping the sides of any one
    # named pair leaves the rest feasible.
    rng = np.random.default_rng(101)
    blocks = [_contradictory_block(rng) for _ in range(300)]
    perms = np.random.default_rng(7)
    named = 0
    for block in blocks:
        try:
            solve_fpp(block)
            continue
        except InfeasibleJudgmentsError as exc:
            conflict = exc.pairs
        perm = perms.permutation(len(block.items))
        relabel = {block.items[i]: block.items[perm[i]] for i in range(len(perm))}
        with pytest.raises(InfeasibleJudgmentsError) as moved:
            solve_fpp(_permuted(block, perm))
        assert moved.value.pairs == tuple((relabel[r], relabel[c]) for r, c in conflict)
        table = solver._block(block)
        base = _side_rows(block)
        pairs = [(j.row, j.col) for j in block.judgments for _ in range(2)]
        hard = table.hard
        sides = [k for k in hard if pairs[k] in conflict]
        assert _highs_slack(base[sides], np.ones(len(sides))) < 0.0
        for pair in conflict:
            rest = [k for k in sides if pairs[k] != pair]
            assert _highs_slack(base[rest], np.ones(len(rest))) >= -1e-11
        named += 1
    assert named >= 15


# Blocks of a seeded sweep: for each rng seed, 300 blocks drawn with
# n = rng.integers(2, 11), _random_block(rng, n) and perm = rng.permutation(n),
# each solved as drawn and with its items reordered by perm. The fixture is
# the block as drawn; the value is perm. The first six raised "simplex
# round-off: the basis is singular" (in seven solves) while every row
# started with an artificial and the leaving row came from the plain
# minimum-ratio test. The next five raised it with the slack start and
# Harris's ratio test while the entering column was always the lowest-index
# improving one, however small its pivot. On sweep_12_138 the slack start
# without Harris's test moved a weight by 0.0024 between the two orders. The
# last five (from seeds 24-46) missed a hard side by more than membership's
# tolerance, so lambda_at gave -inf and the iteration stopped early, while
# the max-slack LP was shifted to start feasible and its solution was not
# refined; sweep_26_274 ended at lambda -18.79 instead of -3.73. With the
# shift and the refinement, sweep_56_281 ended 1.5e-9 lower in lambda, and
# 0.0011 away in the weights, in its reordered form while a reduced cost of
# -6e-10 counted as optimal. sweep_52_182 raised "the basis is singular" in
# its reordered form before the shift. sweep_66_65 stopped at lambda -14.37
# instead of -3.90 in its reordered form when an LP re-optimised from its
# hint read its solution off the tableau: one refinement step left a hard
# side missed by 1.8e-11, and lambda_at gave -inf.
SWEEP_BLOCKS = {
    "sweep_11_280": [0, 3, 4, 1, 5, 2],
    "sweep_12_68": [7, 2, 6, 5, 9, 8, 4, 3, 0, 1],
    "sweep_14_108": [6, 4, 9, 0, 1, 3, 8, 5, 7, 2],
    "sweep_14_125": [3, 5, 2, 7, 6, 1, 0, 4],
    "sweep_17_190": [4, 0, 2, 3, 1],
    "sweep_18_192": [5, 6, 2, 3, 4, 1, 0],
    "sweep_12_30": [0, 6, 7, 1, 4, 2, 3, 5],
    "sweep_13_41": [6, 5, 1, 4, 2, 8, 0, 7, 3],
    "sweep_14_177": [2, 1, 0, 3],
    "sweep_16_21": [3, 0, 7, 6, 1, 8, 2, 5, 4],
    "sweep_18_249": [7, 6, 5, 4, 3, 0, 1, 2],
    "sweep_12_138": [4, 7, 5, 3, 6, 0, 1, 2],
    "sweep_24_218": [3, 2, 0, 4, 6, 1, 7, 5],
    "sweep_26_274": [4, 1, 9, 6, 8, 5, 2, 7, 0, 3],
    "sweep_32_20": [4, 2, 3, 0, 6, 1, 5, 7],
    "sweep_43_199": [3, 5, 1, 4, 0, 2],
    "sweep_46_283": [3, 4, 5, 0, 2, 9, 7, 1, 6, 8],
    "sweep_56_281": [0, 7, 2, 6, 1, 5, 3, 9, 8, 4],
    "sweep_52_182": [2, 3, 5, 1, 4, 0],
    "sweep_66_65": [9, 5, 8, 3, 2, 0, 7, 1, 6, 4],
}


@pytest.mark.parametrize("name", list(SWEEP_BLOCKS))
def test_sweep_blocks_solve_in_either_order(name):
    block = load_study(FIXTURES / f"{name}.json").hierarchy.matrices["goal"]
    reordered = ComparisonMatrix(
        parent=block.parent,
        items=tuple(block.items[k] for k in SWEEP_BLOCKS[name]),
        judgments=block.judgments,
    )
    a, b = solve_fpp(block), solve_fpp(reordered)
    assert abs(lambda_at(block, a.weights) - a.lambda_) <= 1e-12
    assert abs(lambda_at(reordered, b.weights) - b.lambda_) <= 1e-12
    assert abs(a.lambda_ - b.lambda_) <= 1e-9
    for item in block.items:
        assert abs(a.weights[item] - b.weights[item]) <= 1e-9


def _warm_cold_blocks():
    """_blocks(), every SWEEP_BLOCKS fixture in both orders and the
    contradictory fixtures."""
    blocks = _blocks()
    for name, perm in SWEEP_BLOCKS.items():
        block = load_study(FIXTURES / f"{name}.json").hierarchy.matrices["goal"]
        blocks.append(block)
        blocks.append(
            ComparisonMatrix(
                parent=block.parent,
                items=tuple(block.items[k] for k in perm),
                judgments=block.judgments,
            )
        )
    for name in (
        "contradictory_101_45", "contradictory_101_768", "contradictory_103_267"
    ):
        blocks.append(load_study(FIXTURES / f"{name}.json").hierarchy.matrices["goal"])
    return blocks


def test_warm_start_agrees_with_cold_solves(monkeypatch):
    # Each negative-cycle search starts from the potentials the search
    # before left, the first from the log least-squares weights. Solved once
    # as shipped and once with every search started from zero potentials,
    # every block must come out the same: lambda within 1e-9 and the leximin
    # weights, which are unique, within 1e-12. Some warm search must have
    # settled without lowering a potential, or the warm start would never
    # pay.
    blocks = _warm_cold_blocks()
    search, settled = solver._negative_cycle, collections.Counter()

    def watched(tails, heads, weights, pot):
        before = list(pot)
        cycle = search(tails, heads, weights, pot)
        settled[cycle is None and pot == before] += 1
        return cycle

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_negative_cycle", watched)
        warm = [solve_fpp(block) for block in blocks]
    assert settled[True] > 0 and settled[False] > 0

    def cold(tails, heads, weights, pot):
        pot[:] = [0.0] * len(pot)
        return search(tails, heads, weights, pot)

    monkeypatch.setattr(solver, "_negative_cycle", cold)
    for block, a in zip(blocks, warm):
        b = solve_fpp(block)
        assert abs(a.lambda_ - b.lambda_) <= 1e-9
        for item in block.items:
            assert abs(a.weights[item] - b.weights[item]) <= 1e-12


def test_search_counts_do_not_grow(monkeypatch):
    # Searches and stages repeat exactly from run to run, where wall time
    # does not. The bounds are the sums measured when the first stage
    # searched from level 1 and each later one from the root of the cycle
    # that its closed-form bound picked: 230 searches and 105 stages over
    # _blocks(), 10 and 4 over the bundled blocks.
    leximin, counts = solver._leximin, collections.Counter()

    def counted(*args):
        path = leximin(*args)
        counts["searches"] += path.searches
        counts["stages"] += len(path.levels)
        return path

    monkeypatch.setattr(solver, "_leximin", counted)
    for block in _blocks():
        solve_fpp(block)
    assert 0 < counts["searches"] <= 230
    assert 0 < counts["stages"] <= 105
    counts.clear()
    for block in load_study(bundled_study_path()).hierarchy.matrices.values():
        solve_fpp(block)
    assert 0 < counts["searches"] <= 10
    assert 0 < counts["stages"] <= 4


def test_final_duals_agree_with_highs(monkeypatch):
    # The reduced costs d = -c B^-1 of the final working set are the LP's
    # duals, one per judgment side whose row is tight (0 for every other):
    # on feasible_at's max-slack LP of each bundled block at its solved
    # lambda they must be HiGHS's (its marginals are the derivatives of the
    # optimum in b_ub, so -d).
    seen = _recording_lps(monkeypatch)
    for block in load_study(bundled_study_path()).hierarchy.matrices.values():
        feasible_at(block, solve_fpp(block).lambda_)
        lp, _, basic = seen[-1]
        c, a_ub, b_ub, a_eq, b_eq = (lp[k] for k in ("c", "a_ub", "b_ub", "a_eq", "b_eq"))
        n = c.size
        rows = np.vstack([-np.eye(n), a_ub])
        nonbasic = (~basic).nonzero()[0]
        d = np.zeros(len(rows))
        d[nonbasic] = -np.linalg.solve(np.vstack([rows[nonbasic], a_eq]).T, c)[
            : len(nonbasic)
        ]
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, method="highs",
                      options=dict(primal_feasibility_tolerance=1e-10,
                                   dual_feasibility_tolerance=1e-10))
        assert ref.status == 0
        assert d.min() >= -1e-12
        assert np.abs(d[n:] + ref.ineqlin.marginals).max() <= 1e-9
