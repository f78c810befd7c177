"""Preference-programming solver: Dinkelbach iteration, feasibility LP, and the grid oracle."""

import itertools
import math

import numpy as np
import pytest

from fahp import (
    TFN,
    ComparisonJudgment,
    ComparisonMatrix,
    InfeasibleJudgmentsError,
    SolverConfig,
    ValidationError,
    feasible_at,
    lambda_at,
    load_study,
    membership,
    oracle_solve,
    reciprocal,
    solve_fpp,
)
from fahp.solver import _judged, _lattice, _lattice_size, _lowest_membership
from conftest import random_matrix
from test_solver_invariants import FIXTURES, SWEEP_BLOCKS, _blocks


def _mat(items, triples, parent="t"):
    js = tuple(ComparisonJudgment(r, c, TFN(*v)) for r, c, v in triples)
    return ComparisonMatrix(parent=parent, items=tuple(items), judgments=js)


TWO = _mat("ab", [("b", "a", (2.5, 3.47, 4.25))])
CONSISTENT3 = _mat(
    "abc",
    [("b", "a", (1.5, 2, 2.5)), ("c", "a", (3, 4, 5)), ("c", "b", (1.6, 2, 2.4))],
)
CYCLIC = _mat("abc", [("b", "a", (2, 3, 4)), ("c", "b", (2, 3, 4)), ("a", "c", (2, 3, 4))])


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


def test_weights_sum_to_one_and_respect_floor():
    for m in (TWO, CONSISTENT3, CYCLIC):
        res = solve_fpp(m)
        assert sum(res.weights.values()) == pytest.approx(1.0, abs=1e-9)
        assert min(res.weights.values()) >= 1e-6 - 1e-15
        assert res.iterations > 0
        assert res.slack is not None and res.slack >= -1e-9


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


def test_infeasible_solver_config_rejected():
    with pytest.raises(ValueError):
        SolverConfig(weight_floor=-1e-6)


def test_custom_cap_clamps_lower():
    res = solve_fpp(TWO, SolverConfig(lambda_cap=0.5))
    assert res.clamped
    assert res.lambda_ == pytest.approx(0.5, abs=1e-9)


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


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("extra", [0, 1, 5, 37])
def test_lattice_matches_stars_and_bars(n, extra):
    # n - 1 cut points among units - 1 gaps give the positive compositions,
    # and combinations() yields them in the same lexicographic order
    units = n + extra
    cuts = itertools.combinations(range(1, units), n - 1)
    want = [
        [b - a for a, b in zip((0,) + c, c + (units,))] for c in cuts
    ]
    got = _lattice(n, units)
    assert got.dtype == np.int64
    assert got.tolist() == want
    assert len(got) == _lattice_size(n, units)


def _lowest_membership_loop(matrix, vec):
    """The per-judgment loop that _lowest_membership replaced."""
    idx = {item: i for i, item in enumerate(matrix.items)}
    worst = float("inf")
    for j in matrix.judgments:
        worst = min(worst, membership(j.value, vec[idx[j.row]] / vec[idx[j.col]]))
    return min(worst, 1.0)


def test_lowest_membership_matches_the_loop(rng):
    # Bit for bit, on the random invariant blocks and the sweep fixtures
    # (which have hard sides) plus crisp blocks: at the solved weights, at
    # random weights, and with each judgment's ratio put on l, m and u and
    # moved by 0.5e-12 and 1.5e-12 of it either way, inside and outside the
    # 1e-12 bands of the crisp and hard-side rules.
    blocks = _blocks() + [
        load_study(FIXTURES / f"{name}.json").hierarchy.matrices["goal"]
        for name in SWEEP_BLOCKS
    ]
    blocks += [
        _mat("ab", [("b", "a", (2, 2, 2))]),
        _mat("ab", [("a", "b", (1 / 3, 1 / 3, 1 / 3))]),
        _mat("abc", [("b", "a", (2, 2, 2)), ("c", "b", (1.5, 1.5, 1.5))]),
        _mat("abc", [("b", "a", (2, 2, 2)), ("c", "a", (2, 3, 3)), ("c", "b", (1, 1, 1.6))]),
    ]
    hard = crisp = 0
    for block in blocks:
        judged = _judged(block)
        hard += judged.hard_rise.size + judged.hard_fall.size
        crisp += judged.crisp.size
        n = len(block.items)
        vectors = [rng.dirichlet(np.ones(n)) for _ in range(5)]
        if len(block.items) <= 6:
            try:
                vectors.append(solve_fpp(block).weight_vector())
            except InfeasibleJudgmentsError:
                pass
        idx = {item: i for i, item in enumerate(block.items)}
        for j in block.judgments:
            for bound in j.value.as_tuple():
                for nudge in 1.0 + np.array([-1.5, -0.5, 0.0, 0.5, 1.5]) * 1e-12:
                    vec = np.ones(n)
                    vec[idx[j.row]] = bound * nudge
                    vectors.append(vec / vec.sum())
        for vec in vectors:
            assert _lowest_membership(judged, vec) == _lowest_membership_loop(block, vec)
    assert hard >= 50 and crisp >= 5
