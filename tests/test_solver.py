"""Preference-programming solver: the leximin search, feasible_at and grid oracle."""

import collections
import json
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from fahp import (
    TFN,
    ComparisonJudgment,
    ComparisonMatrix,
    InfeasibleJudgmentsError,
    ValidationError,
    feasible_at,
    lambda_at,
    load_study,
    membership,
    oracle_solve,
    reciprocal,
    solve_fpp,
)
from fahp import solver
from fahp.fuzzy import _CRISP_REL_TOL
from fahp.hierarchy import MIN_SPREAD
from fahp.solver import (
    _HARD_REL_TOL,
    _block,
    _lattice_size,
    _lines,
    _lowest_membership,
    _memberships,
)
from conftest import random_matrix
from test_solver_invariants import FIXTURES, SWEEP_BLOCKS, _blocks, _random_block


def _mat(items, triples, parent="t"):
    js = tuple(ComparisonJudgment(r, c, TFN(*v)) for r, c, v in triples)
    return ComparisonMatrix(parent=parent, items=tuple(items), judgments=js)


TWO = _mat("ab", [("b", "a", (2.5, 3.47, 4.25))])
CONSISTENT3 = _mat(
    "abc",
    [("b", "a", (1.5, 2, 2.5)), ("c", "a", (3, 4, 5)), ("c", "b", (1.6, 2, 2.4))],
)
CYCLIC = _mat("abc", [("b", "a", (2, 3, 4)), ("c", "b", (2, 3, 4)), ("a", "c", (2, 3, 4))])
SKEWED_CYCLE_TRIPLES = [
    ("b", "a", (2, 3, 4)), ("c", "b", (1, 2, 3)), ("a", "c", (2, 3, 4))
]
SKEWED_CYCLE = _mat("abc", SKEWED_CYCLE_TRIPLES)


def test_single_judgment_reaches_the_cap():
    res = solve_fpp(TWO)
    assert res.clamped
    assert res.lambda_ == pytest.approx(1.0, abs=1e-6)
    assert res.consistent
    assert res.weights["a"] == pytest.approx(0.22371, abs=1e-4)
    assert res.weights["b"] == pytest.approx(0.77629, abs=1e-4)
    assert res.weights["b"] / res.weights["a"] == pytest.approx(3.47, abs=1e-3)


def test_consistent_matrix_recovers_exact_weights():
    res = solve_fpp(CONSISTENT3)
    assert res.lambda_ == pytest.approx(1.0, abs=1e-6)
    assert res.clamped
    assert res.weights["a"] == pytest.approx(1 / 7, abs=1e-4)
    assert res.weights["b"] == pytest.approx(2 / 7, abs=1e-4)
    assert res.weights["c"] == pytest.approx(4 / 7, abs=1e-4)


def test_cyclic_matrix_is_strongly_inconsistent():
    res = solve_fpp(CYCLIC)
    assert res.lambda_ < 0
    assert not res.consistent
    assert not res.clamped
    # symmetry of the cycle forces near-equal weights
    for w in res.weights.values():
        assert w == pytest.approx(1 / 3, abs=1e-3)


def test_missed_hard_side_starts_from_the_probe():
    # The least-squares weights of this block miss a hard side (lambda -inf),
    # so they give the search no feasible level: its first search is at
    # level 1, and its bracket widens down from there to the first root.
    block = _blocks()[7]
    judged = _block(block)
    assert judged.hard
    start = solver._least_squares_start(judged)
    assert start[1] == -math.inf
    path = solver._leximin(judged, [math.log(w) for w in start[0]], *start[1:])
    res = solve_fpp(block)
    assert path.searches == res.iterations >= 2
    assert not res.clamped and lambda_at(block, res.weights) == res.lambda_


@pytest.mark.parametrize(
    "block", [TWO, CONSISTENT3, _blocks()[0]], ids=["two", "consistent", "two-hard"]
)
def test_consistent_modes_are_clamped_by_the_probe_alone(block):
    # The least-squares weights of consistent modes reach level 1; the block
    # is clamped there without a search.
    res = solve_fpp(block)
    assert res.lambda_ == 1.0 and res.clamped
    assert res.iterations == 0


def test_weights_are_positive_and_sum_to_one():
    for m in (TWO, CONSISTENT3, CYCLIC):
        res = solve_fpp(m)
        assert sum(res.weights.values()) == pytest.approx(1.0, abs=1e-9)
        assert min(res.weights.values()) > 0.0
        if m is CYCLIC:
            assert res.iterations > 0
        else:  # clamped at the least-squares start
            assert res.iterations == 0


def test_solve_is_deterministic():
    a = solve_fpp(CYCLIC)
    b = solve_fpp(CYCLIC)
    assert a.lambda_ == b.lambda_
    assert a.weights == b.weights
    assert a.iterations == b.iterations


def test_crisp_consistent_chain_is_exactly_satisfiable():
    m = _mat("abc", [("b", "a", (2, 2, 2)), ("c", "a", (6, 6, 6)), ("c", "b", (3, 3, 3))])
    res = solve_fpp(m)
    assert res.clamped and res.lambda_ == pytest.approx(1.0, abs=1e-6)
    assert res.weights["a"] == pytest.approx(1 / 9, abs=1e-6)
    assert res.weights["b"] == pytest.approx(2 / 9, abs=1e-6)
    assert res.weights["c"] == pytest.approx(6 / 9, abs=1e-6)


def test_crisp_conflicting_cycle_raises():
    m = _mat("abc", [("b", "a", (2, 2, 2)), ("c", "b", (2, 2, 2)), ("a", "c", (2, 2, 2))])
    with pytest.raises(InfeasibleJudgmentsError) as exc:
        solve_fpp(m)
    assert set(exc.value.pairs) == {("b", "a"), ("c", "b"), ("a", "c")}


def test_reciprocal_flip_changes_lambda():
    # Membership is linear in the ratio as entered, so stating a judgment the
    # other way round, (col, row, 1/u, 1/m, 1/l), is a different constraint
    # and moves lambda. Judgments are solved in the orientation given.
    triples = [("a", "b", (1, 2, 3)), ("b", "c", (1, 2, 3)), ("a", "c", (1, 2, 3))]
    flipped = triples[:2] + [("c", "a", reciprocal(TFN(1, 2, 3)).as_tuple())]
    as_entered = solve_fpp(_mat("abc", triples)).lambda_
    as_flipped = solve_fpp(_mat("abc", flipped)).lambda_
    assert abs(as_entered - as_flipped) > 1e-3


def test_lambda_at_accepts_mapping_and_sequence():
    w = {"a": 0.2, "b": 0.8}
    assert lambda_at(TWO, w) == lambda_at(TWO, [0.2, 0.8])


def test_lambda_at_is_capped_at_one():
    assert lambda_at(TWO, {"a": 1 / 4.47, "b": 3.47 / 4.47}) == pytest.approx(1.0)


def test_lambda_at_validation():
    with pytest.raises(ValueError):
        lambda_at(TWO, {"a": 0.5})  # missing item
    with pytest.raises(ValueError):
        lambda_at(TWO, {"a": -0.2, "b": 1.2})  # nonpositive weight
    with pytest.raises(ValueError):
        lambda_at(TWO, {"a": 0.3, "b": 0.8})  # does not sum to 1


def test_feasible_at_brackets_the_optimum():
    res = solve_fpp(CYCLIC)
    below = feasible_at(CYCLIC, res.lambda_ - 0.05)
    above = feasible_at(CYCLIC, res.lambda_ + 0.05)
    assert below is not None
    assert above is None
    assert sum(below.values()) == pytest.approx(1.0, abs=1e-9)
    # the witness actually achieves the probed level
    assert lambda_at(CYCLIC, below) >= res.lambda_ - 0.05 - 1e-9


def test_feasible_at_rejects_levels_no_vector_meets():
    # Membership is at most 1, so a level above it is unattainable without
    # a solve; a level that is not a number is the caller's error.
    assert feasible_at(CONSISTENT3, 1.0) is not None
    assert feasible_at(CONSISTENT3, 1.0 + 1e-9) is None
    assert feasible_at(CYCLIC, 1e12) is None
    for lam in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            feasible_at(CYCLIC, lam)


@pytest.mark.parametrize("block", [CYCLIC, _mat("abc", [
    ("a", "b", (1, 2, 3)), ("b", "c", (1, 2, 3)), ("a", "c", (3, 4, 5))
])])
def test_feasible_at_refuses_levels_below_its_bound(block):
    # No finite level is refused: every decade from -1e300 to -1, and 0,
    # gives a vector that meets the level exactly when lambda* reaches it.
    # (The LP that once answered refused levels below -1e4, where round-off
    # defeated it.)
    best = solve_fpp(block).lambda_
    for lam in [-(10.0**exponent) for exponent in range(300, -1, -1)] + [0.0]:
        w = feasible_at(block, lam)
        assert (w is not None) == (lam <= best)
        assert w is None or lambda_at(block, w) >= lam


def test_certificate_on_random_matrices(rng):
    # the returned weights must certify the reported lambda
    for _ in range(30):
        n = int(rng.integers(2, 5))
        m = random_matrix(rng, n)
        res = solve_fpp(m)
        assert lambda_at(m, res.weights) >= res.lambda_ - 1e-6 - 1e-9


def test_oracle_refuses_large_matrices():
    m = _mat("abcde", [("b", "a", (1, 2, 3)), ("c", "b", (1, 2, 3)),
                       ("d", "c", (1, 2, 3)), ("e", "d", (1, 2, 3))])
    with pytest.raises(ValueError):
        oracle_solve(m, 0.01)


def test_oracle_step_bounds():
    with pytest.raises(ValueError):
        oracle_solve(TWO, 0.0005)
    with pytest.raises(ValueError):
        oracle_solve(TWO, 0.1)


def test_oracle_crisp_chain_on_grid():
    m = _mat("abc", [("b", "a", (2, 2, 2)), ("c", "a", (6, 6, 6)), ("c", "b", (3, 3, 3))])
    # 1/450 puts (1/9, 2/9, 6/9) exactly on the lattice
    res = oracle_solve(m, 1 / 450)
    assert res.lambda_ == pytest.approx(1.0)
    assert res.clamped
    assert res.weights["a"] == pytest.approx(1 / 9, abs=1e-9)


def test_oracle_crisp_chain_off_grid_localizes():
    m = _mat("abc", [("b", "a", (2, 2, 2)), ("c", "a", (6, 6, 6)), ("c", "b", (3, 3, 3))])
    # no lattice point at step 0.001 satisfies the hard equalities, so the
    # search falls back to the least-violating point and flags it
    res = oracle_solve(m, 0.001)
    assert math.isinf(res.lambda_) and res.lambda_ < 0
    assert not res.consistent
    assert res.weights["a"] == pytest.approx(1 / 9, abs=0.01)
    assert res.weights["b"] == pytest.approx(2 / 9, abs=0.01)
    assert res.weights["c"] == pytest.approx(6 / 9, abs=0.01)


def test_oracle_never_beats_the_solver(rng):
    for _ in range(15):
        n = int(rng.integers(2, 4))
        m = random_matrix(rng, n)
        f = solve_fpp(m)
        o = oracle_solve(m, 0.005)
        assert o.lambda_ <= f.lambda_ + 1e-6


def test_oracle_agrees_on_cyclic_fixture():
    f = solve_fpp(CYCLIC)
    o = oracle_solve(CYCLIC, 0.005)
    assert o.lambda_ < 0
    assert o.lambda_ == pytest.approx(f.lambda_, abs=0.03)


def _stars_and_bars(n, units):
    """Every vector of n positive integers summing to units, in
    lexicographic order: n - 1 cut points among the units - 1 gaps give
    them, and combinations() yields the cuts in the same order."""
    return [
        [b - a for a, b in zip((0,) + c, c + (units,))]
        for c in itertools.combinations(range(1, units), n - 1)
    ]


def _reference_scores(matrix, units):
    """Every lattice point's weights, min(lambda, 1) and hard violation, in
    one array each."""
    lattice = np.array(_stars_and_bars(len(matrix.items), units), dtype=np.int64)
    weights = lattice.astype(float) / units
    idx = {item: i for i, item in enumerate(matrix.items)}
    lam = np.full(weights.shape[0], np.inf)
    hard_violation = np.zeros(weights.shape[0])
    for j in matrix.judgments:
        ratio = weights[:, idx[j.row]] / weights[:, idx[j.col]]
        l, m, u = j.value.as_tuple()
        if m > l:
            lam = np.minimum(lam, (ratio - l) / (m - l))
        else:
            hard_violation = np.maximum(hard_violation, (l - ratio) / l)
        if u > m:
            lam = np.minimum(lam, (u - ratio) / (u - m))
        else:
            hard_violation = np.maximum(hard_violation, (ratio - u) / u)
    return weights, np.minimum(lam, 1.0), hard_violation


def _oracle_reference(matrix, grid_step):
    """The grid oracle scored point by point on the whole lattice in one
    array: the reference that the line search must match bit for bit."""
    units = round(1.0 / grid_step)
    weights, lam, hard_violation = _reference_scores(matrix, units)
    hard_ok = hard_violation <= _HARD_REL_TOL
    if hard_ok.any():
        scored = np.where(hard_ok, lam, -np.inf)
        best = int(np.argmax(scored))
        best_lambda = float(scored[best])
    else:
        best = int(np.argmin(hard_violation))
        best_lambda = float("-inf")
    return (
        [float(x) for x in weights[best]],
        best_lambda,
        int(weights.shape[0]),
        best_lambda >= 1.0 - 1e-12,
    )


def _assert_matches_reference(matrix, grid_step):
    got = oracle_solve(matrix, grid_step)
    want = _oracle_reference(matrix, grid_step)
    assert (
        list(got.weights.values()), got.lambda_, got.iterations, got.clamped
    ) == want
    return want


# a hub judged against every other item alike: swapping two spokes maps the
# block onto itself, so the lattice's best points tie exactly, on different
# lines of the search
_STAR3 = _mat("abc", [("c", "a", (2, 3, 4)), ("c", "b", (2, 3, 4))])
_STAR4 = _mat(
    "abcd", [("d", "a", (2, 3, 4)), ("d", "b", (2, 3, 4)), ("d", "c", (2, 3, 4))]
)
_CRISP_STAR3 = _mat("abc", [("c", "a", (3, 3, 3)), ("c", "b", (3, 3, 3))])


CRISP_CHAIN = _mat(
    "abc", [("b", "a", (2, 2, 2)), ("c", "a", (6, 6, 6)), ("c", "b", (3, 3, 3))]
)


def _oracle_cases():
    """Seeded blocks of two to four items, soft, with hard sides and with
    crisp judgments, at steps down to 0.002 (0.01 for four items), and
    blocks whose lattice ties or violates a hard side everywhere, at the
    finest step."""
    rng = np.random.default_rng(20261020)
    steps = {
        2: [0.05, 0.02, 0.01, 0.005, 0.002],
        3: [0.05, 0.02, 0.01, 0.005, 0.002],
        4: [0.05, 0.02, 0.01],
    }
    for n, ns in steps.items():
        for step in ns:
            for hard_share, crisp_share in ((0.0, 0.0), (0.3, 0.0), (0.15, 0.4)):
                for _ in range(2):
                    yield _random_block(rng, n, hard_share, crisp_share), step
    # on the grid at 1/450; off it at 0.001, where every point violates a
    # hard side and the least violation wins across 998 lines
    yield CRISP_CHAIN, 1 / 450
    for matrix in (CRISP_CHAIN, _STAR3, _CRISP_STAR3, CYCLIC):
        yield matrix, 0.001


def test_oracle_matches_the_one_array_reference():
    cases = list(_oracle_cases())
    assert any(
        any(j.value.l == j.value.m or j.value.m == j.value.u for j in m.judgments)
        for m, _ in cases
    )
    lambdas = [_assert_matches_reference(matrix, step)[1] for matrix, step in cases]
    # both modes: some lattice point meets every hard side, or none does
    assert 1.0 in lambdas and -math.inf in lambdas
    assert sum(lam > -math.inf for lam in lambdas) > 20
    assert lambdas.count(-math.inf) > 10


@pytest.mark.parametrize("seed", [1, 3, 64])
def test_oracle_matches_the_reference_on_seeded_blocks(seed):
    rng = np.random.default_rng(seed)
    blocks = [
        _random_block(rng, n, hard_share=0.3) for n in (2, 3, 4) for _ in range(4)
    ]
    for matrix in blocks + [CYCLIC, CONSISTENT3, SKEWED_CYCLE]:
        _assert_matches_reference(matrix, 0.05)


@pytest.mark.parametrize(
    "matrix, units",
    [(_STAR3, 367), (_STAR4, 50), (_STAR4, 99), (_CRISP_STAR3, 367)],
    ids=["star3", "star4-50", "star4-99", "crisp-star3-off-grid"],
)
def test_oracle_ties_across_lines_keep_the_first(matrix, units):
    weights, lam, hard_violation = _reference_scores(matrix, units)
    if (hard_violation <= _HARD_REL_TOL).any():
        tied = np.flatnonzero(lam == lam.max())
    else:  # the crisp star is off-grid: every point violates a hard side
        tied = np.flatnonzero(hard_violation == hard_violation.min())
    # a line fixes every weight but the last two
    assert len({tuple(weights[t, :-2]) for t in tied}) > 1
    _assert_matches_reference(matrix, 1 / units)


def _oracle_peak_bytes(matrix, grid_step):
    tracemalloc.start()
    try:
        oracle_solve(matrix, grid_step)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_memory_is_flat_in_the_step():
    # the 156,849-point 4-item lattice in one array would take about 16 MB
    four = _random_block(np.random.default_rng(4), 4)
    assert _oracle_peak_bytes(four, 0.01) < 4e6
    assert _oracle_peak_bytes(CYCLIC, 0.001) < 4e6


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("extra", [0, 1, 5, 37])
def test_lattice_matches_stars_and_bars(n, extra):
    # the oracle's lines, each run through its free entry, are the lattice
    # in lexicographic order
    units = n + extra
    got = [
        ks + [a, rest - a] for ks, rest in _lines(n, units) for a in range(1, rest)
    ]
    assert got == _stars_and_bars(n, units)
    assert len(got) == _lattice_size(n, units)


def _lowest_membership_loop(matrix, vec):
    """The per-judgment loop that _lowest_membership replaced."""
    idx = {item: i for i, item in enumerate(matrix.items)}
    worst = float("inf")
    for j in matrix.judgments:
        worst = min(worst, membership(j.value, vec[idx[j.row]] / vec[idx[j.col]]))
    return min(worst, 1.0)


def _array_blocks():
    """The random invariant blocks and the sweep fixtures (which have hard
    sides) plus crisp blocks."""
    return _blocks() + [
        load_study(FIXTURES / f"{name}.json").hierarchy.matrices["goal"]
        for name in SWEEP_BLOCKS
    ] + [
        _mat("ab", [("b", "a", (2, 2, 2))]),
        _mat("ab", [("a", "b", (1 / 3, 1 / 3, 1 / 3))]),
        _mat("abc", [("b", "a", (2, 2, 2)), ("c", "b", (1.5, 1.5, 1.5))]),
        _mat("abc", [("b", "a", (2, 2, 2)), ("c", "a", (2, 3, 3)), ("c", "b", (1, 1, 1.6))]),
    ]


def _on_the_bounds(block):
    """Unnormalized weight vectors that put one judgment's ratio exactly on
    l * (1 - 1e-12), u * (1 + 1e-12) or m, the thresholds of the hard-side
    and crisp rules, or on l or u, where a soft side's membership is +0;
    and one ulp either side of each. A vector divided by its sum rarely
    keeps such a ratio."""
    idx = {item: i for i, item in enumerate(block.items)}
    for j in block.judgments:
        l, m, u = j.value.as_tuple()
        for bound in (l * (1 - _CRISP_REL_TOL), u * (1 + _CRISP_REL_TOL), m, l, u):
            for at in (np.nextafter(bound, 0.0), bound, np.nextafter(bound, np.inf)):
                vec = np.ones(len(block.items))
                vec[idx[j.row]] = at
                assert vec[idx[j.row]] / vec[idx[j.col]] == at
                yield vec


def test_lowest_membership_matches_the_loop(rng):
    # Bit for bit, on _array_blocks(): at the solved weights, at random
    # weights, with each judgment's ratio put on l, m and u and moved by
    # 0.5e-12 and 1.5e-12 of it either way, inside and outside the 1e-12
    # bands of the crisp and hard-side rules, and exactly on those bands'
    # edges and one ulp either side, where the table's comparison of the
    # ratio with base * (1 - sign * 1e-12) must agree with ratio >= l * (1 -
    # 1e-12) and ratio <= u * (1 + 1e-12) at equality. Each judgment's two
    # sides must also give its own membership, bit for bit.
    hard = crisp = edges = 0
    for block in _array_blocks():
        judged = _block(block)
        hard += len(judged.hard)
        crisp += len(judged.crisp)
        n = len(block.items)
        vectors = [rng.dirichlet(np.ones(n)) for _ in range(5)]
        if len(block.items) <= 6:
            try:
                vectors.append(np.array(list(solve_fpp(block).weights.values())))
            except InfeasibleJudgmentsError:
                pass
        idx = {item: i for i, item in enumerate(block.items)}
        for j in block.judgments:
            for bound in j.value.as_tuple():
                for nudge in 1.0 + np.array([-1.5, -0.5, 0.0, 0.5, 1.5]) * 1e-12:
                    vec = np.ones(n)
                    vec[idx[j.row]] = bound * nudge
                    vectors.append(vec / vec.sum())
        exact = list(_on_the_bounds(block))
        for vec in vectors + exact:
            assert _lowest_membership(judged, vec) == _lowest_membership_loop(block, vec)
            sides = np.array(_memberships(judged, vec))
            each = [
                membership(j.value, vec[idx[j.row]] / vec[idx[j.col]])
                for j in block.judgments
            ]
            lowest = np.minimum(sides[::2], sides[1::2])
            assert lowest.tobytes() == np.array(each).tobytes()
        for vec in exact:  # count the hard sides whose bound is hit exactly
            for side in judged.hard:
                ratio = vec[judged.row[side]] / vec[judged.col[side]]
                bound = judged.base[side] * (1 + judged.sign[side] * _CRISP_REL_TOL)
                edges += ratio == bound
    assert hard >= 50 and crisp >= 5 and edges >= 300


def _sides_loop(matrix):
    """The per-judgment loop that _block's side rows replaced: judgment i's
    rising side is row 2i and its falling side row 2i + 1."""
    idx = {item: i for i, item in enumerate(matrix.items)}
    k = 2 * len(matrix.judgments)
    base = np.zeros((k, len(matrix.items)))
    spread = np.zeros_like(base)
    hard = np.zeros(k, dtype=bool)
    for i, j in enumerate(matrix.judgments):
        r, c = idx[j.row], idx[j.col]
        l, m, u = j.value.as_tuple()
        rising, falling = 2 * i, 2 * i + 1
        base[rising, c], base[rising, r], spread[rising, c] = l, -1.0, m - l
        base[falling, c], base[falling, r], spread[falling, c] = -u, 1.0, u - m
        hard[rising], hard[falling] = m == l, u == m
    return base, spread, hard


def _dense(block, n):
    """The side rows base and spread of a solver._Block as dense arrays: the
    coefficient l or -u (-sign * base) at the col item and sign at the row
    item, and the slope at the col item."""
    base, spread = np.zeros((2, len(block.row), n))
    at = np.arange(len(block.row))
    sign = np.array(block.sign)
    base[at, block.col], base[at, block.row] = -sign * np.array(block.base), sign
    spread[at, block.col] = block.slope
    return base, spread


def test_side_rows_match_the_loop():
    # Bit for bit, on the blocks whose memberships are checked above: the
    # table's side rows against the rows the loop builds, and the edge each
    # side becomes in the search's graph, whose weight at a level is sign *
    # log of the ratio bound those rows hold.
    hard = 0
    for matrix in _array_blocks():
        n = len(matrix.items)
        block = _block(matrix)
        base, spread, hard_sides = _sides_loop(matrix)
        assert [k == 0.0 for k in block.slope] == hard_sides.tolist()
        assert all(np.array_equal(a, b) for a, b in zip(_dense(block, n), (base, spread)))
        edges = solver._side_edges(block)
        for lam in (1.0, 0.37, -2.5, -1e3):
            rows = base + lam * spread
            for s, weight in enumerate(solver._weights(edges, lam)):
                sign, r, c = block.sign[s], block.row[s], block.col[s]
                assert (edges.tail[s], edges.head[s]) == ((r, c) if sign < 0 else (c, r))
                bound = -sign * rows[s, c]
                assert weight == (sign * math.log(bound) if bound > 0 else math.inf)
        hard += hard_sides.sum()
    assert hard >= 50


def _former_block(matrix):
    """_block's fields after `matrix`, then _sides's arrays, as they were
    built before a block without hard sides skipped the bound arrays and
    before the spans and side rows moved: the reference."""
    idx = {item: i for i, item in enumerate(matrix.items)}
    row = np.array([idx[j.row] for j in matrix.judgments])
    col = np.array([idx[j.col] for j in matrix.judgments])
    l, m, u = np.array([j.value.as_tuple() for j in matrix.judgments]).T
    base, spread, hard = _sides_loop(matrix)
    hard_rise, hard_fall = (m == l).nonzero()[0], (u == m).nonzero()[0]
    return (
        row, col, l, m, u,
        np.where(m > l, m - l, 1.0),
        np.where(u > m, u - m, 1.0),
        hard_rise, l[hard_rise] * (1 - _CRISP_REL_TOL),
        hard_fall, u[hard_fall] * (1 + _CRISP_REL_TOL),
        (l == u).nonzero()[0],
        base, spread, hard,
    )


def test_block_fields_match_the_former_construction():
    # Every field of the side table, with and without hard sides, against
    # the former per-judgment fields and side rows: judgment i's fields at
    # sides 2i and 2i + 1, the side rows through the dense helper, and each
    # hard side's ratio bound, base * (1 - sign * 1e-12), from the former
    # floor or ceiling. The fields are tuples of Python ints (the item and
    # side indices) and floats; the former l, m and u kept the integer type
    # of integer judgments, and they are floats now.
    rng = np.random.default_rng(7)
    soft = [_random_block(rng, n, hard_share=0.0) for n in range(2, 11)]
    kinds = collections.Counter()
    for matrix in _array_blocks() + soft + [TWO, CONSISTENT3, CYCLIC]:
        block = _block(matrix)
        (row, col, l, m, u, rise_span, fall_span, hard_rise, floor, hard_fall,
         ceiling, crisp, base, spread, hard) = _former_block(matrix)
        l, m, u = (a.astype(float) for a in (l, m, u))
        fields = dict(
            row=row.repeat(2), col=col.repeat(2), sign=np.tile([-1.0, 1.0], l.size),
            base=np.array([l, u]).T.ravel(), slope=np.array([m - l, u - m]).T.ravel(),
            hard=hard.nonzero()[0], m=m, crisp=crisp,
        )
        assert list(fields) == list(solver._Block._fields[1:])
        assert block.matrix is matrix
        kinds[bool(hard.any())] += 1
        for name, old in fields.items():
            new = getattr(block, name)
            assert type(new) is tuple, name
            assert list(new) == old.tolist(), name
            kind = float if name in ("sign", "base", "slope", "m") else int
            assert all(type(x) is kind for x in new), name
        dense = _dense(block, len(matrix.items))
        assert dense[0].tobytes() == base.tobytes()
        assert dense[1].tobytes() == spread.tobytes()
        limit = np.full(hard.size, np.nan)
        limit[2 * hard_rise], limit[2 * hard_fall + 1] = floor, ceiling
        bounds = [b * (1 + s * _CRISP_REL_TOL) for b, s in zip(block.base, block.sign)]
        assert np.array(bounds)[hard].tobytes() == limit[hard].tobytes()
        # the spans of the former soft sides are the table's slopes there
        assert np.array_equal(np.array([rise_span, fall_span]).T.ravel()[~hard],
                              np.array(block.slope)[~hard])
    assert kinds[True] >= 30 and kinds[False] >= 12


def _narrow_block(rng, spread):
    """A complete block of 3-7 items with modes log-uniform in [1/9, 9] and
    side spreads log-uniform in [0.005, 0.3] of m, except that in six
    judgments in ten one side, either one, spans `spread` times m."""
    n = int(rng.integers(3, 8))
    items = tuple(f"i{k}" for k in range(n))
    judgments = []
    for a, b in itertools.combinations(range(n), 2):
        m = math.exp(rng.uniform(math.log(1 / 9), math.log(9)))
        lo, hi = (math.exp(rng.uniform(math.log(0.005), math.log(0.3))) for _ in range(2))
        if rng.random() < 0.6:
            if rng.random() < 0.5:
                lo = spread
            else:
                hi = spread
        value = TFN(m * (1 - lo), m, m * (1 + hi))
        judgments.append(ComparisonJudgment(items[a], items[b], value))
    return ComparisonMatrix(parent="goal", items=items, judgments=tuple(judgments))


def test_blocks_at_the_spread_bound_solve():
    # Narrow sides just inside MIN_SPREAD (m - l rounds to either side of
    # MIN_SPREAD * m at exactly MIN_SPREAD). Far below it, such blocks
    # raised "simplex round-off" and "iteration limit" errors, and at a tenth
    # of it a hinted LP divided by zero. Every block solves, warning-free, to
    # a lambda that its weights attain.
    rng = np.random.default_rng(8)
    for _ in range(300):
        block = _narrow_block(rng, MIN_SPREAD * (1 + 1e-9))
        res = solve_fpp(block)
        assert res.clamped or lambda_at(block, res.weights) == res.lambda_


def test_narrower_sides_are_rejected():
    # the block itself cannot be built, so no solve ever sees it
    rng = np.random.default_rng(8)
    with pytest.raises(ValidationError, match="for a hard bound"):
        _narrow_block(rng, MIN_SPREAD * (1 - 1e-9))


SOLVER_PATH = FIXTURES.parent / "solver_path.json"


def test_solver_path_is_pinned():
    # The leximin search's path on the seeded blocks of the fixture (its
    # "about" says how they were drawn): each block's searches and whether
    # it is clamped are pinned exactly, its stage levels, lambda and weights
    # within 1e-12 (relative, or 1e-15 absolute near 0); the infeasible
    # block names the same pairs. A change that moves the path shows here in
    # tier 1.
    kinds = collections.Counter()
    for case in json.loads(SOLVER_PATH.read_text())["blocks"]:
        matrix = _mat(case["items"], [(r, c, v) for r, c, *v in case["judgments"]], "goal")
        kinds["hard sides"] += any(l == m or m == u for _, _, l, m, u in case["judgments"])
        if "infeasible" in case:
            with pytest.raises(InfeasibleJudgmentsError) as exc:
                solve_fpp(matrix)
            assert [list(pair) for pair in exc.value.pairs] == case["infeasible"]
            kinds["infeasible"] += 1
            continue
        res = solve_fpp(matrix)
        name = case["name"]
        assert (res.iterations, res.clamped) == (case["searches"], case["clamped"]), name
        levels = []
        if res.iterations:
            block = _block(matrix)
            w, lam, tight = solver._least_squares_start(block)
            path = solver._leximin(block, [math.log(v) for v in w], lam, tight)
            levels = path.levels
        assert len(levels) == len(case["levels"]), name
        pinned = [*zip(levels, case["levels"]), (res.lambda_, case["lambda"])]
        pinned += [(res.weights[item], w) for item, w in zip(case["items"], case["weights"])]
        for got, want in pinned:
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15), name
        kinds["clamped at the start" if res.iterations == 0 else "solved"] += 1
    assert kinds == {
        "hard sides": 14, "infeasible": 1, "clamped at the start": 1, "solved": 22
    }
