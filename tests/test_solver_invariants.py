"""Invariants of the Dinkelbach solver on random blocks of 2-10 items, some
with hard (zero-spread) sides, and regressions for blocks that once failed."""

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
    bundled_study_path,
    lambda_at,
    load_study,
    simplex,
    solve_fpp,
    solver,
)
from fahp.cli import main
from fahp.simplex import solve_lp

FIXTURES = Path(__file__).parent / "fixtures" / "roundoff"
WEIGHT_FLOOR = 1e-6


def _random_block(rng, n, hard_share=0.15):
    """A complete block around a latent weight vector.

    Modes are the latent ratios times log-normal noise and the spreads are
    log-uniform. A hard side is placed on the latent side of its mode, so
    the latent vector meets every hard side and the block is feasible.
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
            if rng.random() < hard_share:  # hard lower side: ratio >= l = m
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


def _highs_max_slack(matrix, lam):
    """max t s.t. every judgment side + t <= 0 at level lam, by HiGHS."""
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
        bounds=[(WEIGHT_FLOOR, None)] * n + [(None, None)],
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def _highs_slack(rows, scale):
    """max t s.t. rows @ w + t * scale <= 0, sum w = 1, w >= the floor, by
    HiGHS."""
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
        bounds=[(WEIGHT_FLOOR, None)] * n + [(None, None)],
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


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


def test_max_slack_reports_the_unshifted_slack():
    # _max_slack solves for t + theta, so that its LP starts feasible, and
    # reports t. On the bundled blocks, t must be HiGHS's optimum on the same
    # rows: at lambda_cap with a unit scale, and at the solved lambda with
    # the Dinkelbach scale D_i(w). The shift is 2.5e-6 to 1.5e-4 there.
    cfg = solver.SolverConfig()
    for block in load_study(bundled_study_path()).hierarchy.matrices.values():
        base, spread, _ = solver._sides(block)
        res = solve_fpp(block)
        w = res.weight_vector()
        for lam, scale in (
            (cfg.lambda_cap, np.ones(len(base))),
            (res.lambda_, spread @ w),
        ):
            rows = base + lam * spread
            t, _, _ = solver._max_slack(rows, scale, cfg)
            assert abs(t - _highs_slack(rows, scale)) <= 1e-9


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
# so that lambda is far below -100 and weights sit on the floor. Without the
# refinement step, the solutions missed a hard side by more than
# membership's tolerance: on contradictory_101_45 lambda_at gave -inf and the
# next LP raised, and contradictory_101_768 stopped at lambda -4213.0
# instead of -233.9. contradictory_103_267 raises "simplex round-off: the
# basis is singular" when every LP is solved cold; each LP started from its
# predecessor's basis solves it.
@pytest.mark.parametrize(
    "name", ["contradictory_101_45", "contradictory_101_768", "contradictory_103_267"]
)
def test_contradictory_blocks_solve_to_the_optimum(name):
    block = load_study(FIXTURES / f"{name}.json").hierarchy.matrices["goal"]
    res = solve_fpp(block)
    assert lambda_at(block, res.weights) == res.lambda_
    assert _highs_max_slack(block, res.lambda_ + 1e-5 * abs(res.lambda_)) < 0.0


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
    # not contradictory_103_267, whose cold solve raises
    for name in ("contradictory_101_45", "contradictory_101_768"):
        blocks.append(load_study(FIXTURES / f"{name}.json").hierarchy.matrices["goal"])
    return blocks


def test_warm_start_agrees_with_cold_solves(monkeypatch):
    # Each Dinkelbach LP starts from the previous LP's final basis. Solved
    # once as shipped and once with that hint dropped, every block must come
    # out the same. Some hint must have been certified as optimal and some
    # re-optimised from its own tableau, or a warm path would be dead code.
    blocks = _warm_cold_blocks()
    warm_lp, reached = simplex._warm, collections.Counter()

    def counting(*args):
        res = warm_lp(*args)
        if res is not None:
            reached["reoptimised" if res.pivots else "certified"] += 1
        return res

    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_warm", counting)
        warm = [solve_fpp(block) for block in blocks]
    assert reached["certified"] > 0 and reached["reoptimised"] > 0

    def cold_lp(*args, basis=None, **kwargs):
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_lp", cold_lp)
    for block, a in zip(blocks, warm):
        b = solve_fpp(block)
        assert abs(a.lambda_ - b.lambda_) <= 1e-9
        for item in block.items:
            assert abs(a.weights[item] - b.weights[item]) <= 1e-9


def test_pivot_counts_do_not_grow(monkeypatch):
    # Pivots repeat exactly from run to run, where wall time does not. The
    # bounds are the sums measured with each Dinkelbach LP started from the
    # previous LP's final basis, re-optimised by the dual simplex (and the
    # primal one) when that basis is no longer optimal. With only a basis
    # that was still optimal used, and every other LP solved cold, they were
    # 1,510 and 43. Solved all cold, with the max-slack LP's slack shifted so
    # that every soft row starts with its own slack basic and a reduced cost
    # counted as improving below -1e-10, they were 3,123 and 143 (3,109 at
    # -1e-9). Without the shift (phase 1 from the slack basis, Harris's ratio
    # test) they were 5,761 and 183; an artificial in every row and the plain
    # minimum-ratio test took 12,206 and 308.
    pivots = []

    def counted(*args, **kwargs):
        res = solve_lp(*args, **kwargs)
        pivots.append(res.pivots)
        return res

    monkeypatch.setattr(solver, "solve_lp", counted)
    for block in _blocks():
        solve_fpp(block)
    assert 0 < sum(pivots) <= 914
    pivots.clear()
    for block in load_study(bundled_study_path()).hierarchy.matrices.values():
        solve_fpp(block)
    assert 0 < sum(pivots) <= 23
