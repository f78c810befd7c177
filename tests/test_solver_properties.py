"""Differential properties of solve_fpp on generated blocks of 2-10 items:
the least-squares start against an equal-weights start, the returned
weights against lambda_at, item order, and HiGHS; and the guarantees of
the leximin weights: unique whatever the item order or lambda_cap, and
each stage's sides at the highest level HiGHS can find for them."""

import collections
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from fahp import (
    TFN,
    ComparisonJudgment,
    ComparisonMatrix,
    InfeasibleJudgmentsError,
    bundled_study_path,
    lambda_at,
    load_study,
    solve_fpp,
    solver,
)
from test_solver_invariants import (
    _blocks,
    _highs_max_slack,
    _permuted,
    _random_block,
    _side_rows,
)

# Fixed examples, so that a failure reproduces and Tier-1 stays fast.
PROPERTY_SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def blocks(draw, hard):
    """A complete block around a drawn latent weight vector: each mode is the
    latent ratio times exp(noise), and each side's log-spread lies in [0.02,
    0.8]. With `hard`, a judgment is a hard lower side (l = m) or a hard
    upper side (u = m) with probability 1/10 each, on whichever side of the
    latent ratio the noise put its mode, so the hard sides may conflict."""
    n = draw(st.integers(2, 10))
    latent = draw(st.lists(st.floats(0.02, 1.0), min_size=n, max_size=n))
    items = tuple(f"i{k}" for k in range(n))
    judgments = []
    for a in range(n):
        for b in range(a + 1, n):
            m = latent[a] / latent[b] * math.exp(draw(st.floats(-1.0, 1.0)))
            lo = m * math.exp(-draw(st.floats(0.02, 0.8)))
            hi = m * math.exp(draw(st.floats(0.02, 0.8)))
            kind = draw(st.integers(0, 9)) if hard else 9
            if kind == 0:
                value = TFN(m, m, hi)
            elif kind == 1:
                value = TFN(lo, m, m)
            else:
                value = TFN(lo, m, hi)
            judgments.append(ComparisonJudgment(items[a], items[b], value))
    return ComparisonMatrix(parent="prop", items=items, judgments=tuple(judgments))


def _solve(block, cfg=None):
    """solve_fpp's result, or None when the hard sides conflict."""
    try:
        return solve_fpp(block, cfg)
    except InfeasibleJudgmentsError:
        return None


def _equal_weights(block):
    """The start (w, lambda) at equal weights."""
    w = np.full(len(block.matrix.items), 1.0 / len(block.matrix.items))
    return w, solver._lowest_membership(block, w)


@pytest.mark.parametrize("hard", [False, True], ids=["soft", "hard"])
def test_least_squares_start_agrees_with_the_probe_start(hard):
    @PROPERTY_SETTINGS
    @given(blocks(hard))
    def check(block):
        res = _solve(block)
        with mock.patch.object(solver, "_least_squares_start", _equal_weights):
            probe = _solve(block)
        assert (res is None) == (probe is None)
        if res is not None:
            assert abs(res.lambda_ - probe.lambda_) <= 1e-8
            assert res.clamped == probe.clamped

    check()


@pytest.mark.parametrize("hard", [False, True], ids=["soft", "hard"])
def test_solution_is_optimal_and_order_free(hard):
    @PROPERTY_SETTINGS
    @given(blocks(hard), st.randoms(use_true_random=False))
    def check(block, random):
        res = _solve(block)
        perm = list(range(len(block.items)))
        random.shuffle(perm)
        moved = _solve(_permuted(block, perm))
        assert (res is None) == (moved is None)
        if res is None:
            return
        if res.clamped:
            assert lambda_at(block, res.weights) >= res.lambda_ - 1e-9
        else:
            assert lambda_at(block, res.weights) == res.lambda_
            lam = res.lambda_
            assert _highs_max_slack(block, lam + 1e-5 * max(1.0, abs(lam))) < 0.0
        assert abs(moved.lambda_ - res.lambda_) <= 1e-9
        for i, item in enumerate(block.items):
            renamed = block.items[perm[i]]
            assert abs(moved.weights[renamed] - res.weights[item]) <= 1e-6

    check()


def _hard_crisp_blocks(seed=2610, count=90):
    """Complete blocks of 2-10 items with hard sides and crisp judgments,
    drawn by _random_block: a tenth of the judgments crisp at the latent
    ratio and about a seventh of the rest with a hard side."""
    rng = np.random.default_rng(seed)
    return [
        _random_block(rng, 2 + k % 9, hard_share=0.15, crisp_share=0.1)
        for k in range(count)
    ]


def test_leximin_weights_are_permutation_equivariant():
    # The leximin weights are unique, so relabeling the items of a block with
    # hard and crisp sides moves its weights with the labels, to round-off:
    # within 1e-12, as lambda (relative to max(1, |lambda|)).
    rng = np.random.default_rng(7)
    kinds = collections.Counter()
    for block in _hard_crisp_blocks():
        perm = rng.permutation(len(block.items))
        a, b = _solve(block), _solve(_permuted(block, perm))
        assert (a is None) == (b is None)
        if a is None:
            kinds["infeasible"] += 1
            continue
        assert abs(a.lambda_ - b.lambda_) <= 1e-12 * max(1.0, abs(a.lambda_))
        for i, item in enumerate(block.items):
            assert abs(b.weights[block.items[perm[i]]] - a.weights[item]) <= 1e-12
        values = [j.value for j in block.judgments]
        kinds["crisp"] += any(v.is_crisp for v in values)
        kinds["hard"] += any(v.l == v.m or v.m == v.u for v in values)
        kinds["searched"] += a.iterations > 0
    assert kinds["infeasible"] == 0
    assert kinds["crisp"] >= 40 and kinds["hard"] >= 60 and kinds["searched"] >= 60


def _path(block, cfg=None):
    """solve_fpp's leximin search of the block: the result and its stage
    levels (none for a block clamped at its least-squares start)."""
    res = solve_fpp(block, cfg)
    if not res.iterations:
        return res, []
    table = solver._block(block)
    w, lam = solver._least_squares_start(table)
    return res, solver._leximin(table, [math.log(v) for v in w], lam).levels


def _highs_raise(block, held, side, target):
    """The largest t, by HiGHS, such that side `side` holds at level target
    with slack t (its row @ w + t <= 0) while every other side j holds at
    level held[j], sum w = 1 and w >= 1e-6."""
    n = len(block.items)
    base = _side_rows(block, 0.0)
    slope = _side_rows(block, 1.0) - base
    levels = np.array(held, dtype=float)
    levels[side] = target
    rows = np.column_stack([base + levels[:, None] * slope, np.zeros(len(base))])
    rows[side, n] = 1.0
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    res = linprog(
        -np.eye(n + 1)[n], A_ub=rows, b_ub=np.zeros(len(rows)), A_eq=a_eq,
        b_eq=[1.0], bounds=[(1e-6, None)] * n + [(None, None)], method="highs",
        options=dict(primal_feasibility_tolerance=1e-10, dual_feasibility_tolerance=1e-10),
    )
    assert res.status == 0, res.message
    return -res.fun


def test_each_settled_side_is_at_its_highest_level():
    # At the leximin weights each stage's level is the membership of some
    # side: the sides it settled. HiGHS finds a point that holds each such
    # side at its level while every side holds min(its membership, the
    # level), less 1e-9, and none that raises it 1e-5 (relative) above its
    # level under the same holds: its level is the highest it can reach
    # once every earlier side holds its own.
    blocks = [b for b in _blocks() if len(b.items) <= 7]
    blocks += load_study(bundled_study_path()).hierarchy.matrices.values()
    checked = 0
    for block in blocks:
        res, levels = _path(block)
        if not levels:
            continue
        table = solver._block(block)
        member = solver._memberships(table, [res.weights[it] for it in block.items])
        for level in levels:
            tol = 1e-9 * max(1.0, abs(level))
            settled = [s for s, mu in enumerate(member) if abs(mu - level) <= tol]
            assert settled, (block.items, level)
            held = [min(mu, level) - tol for mu in member]
            for side in settled:
                assert _highs_raise(block, held, side, level - tol) >= -1e-12
                assert _highs_raise(block, held, side, level + 1e-5 * max(1.0, abs(level))) < 0.0
                checked += 1
    assert checked >= 100


def test_bundled_w2_takes_the_leximin_point():
    # The max-min level of block W2 leaves a face of optimal weights; the
    # leximin point of that face is unique.
    w2 = load_study(bundled_study_path()).hierarchy.matrices["W2"]
    res = solve_fpp(w2)
    want = {"W21": 0.087833, "W22": 0.186550, "W23": 0.361594, "W24": 0.364022}
    assert res.weights.keys() == want.keys()
    for item, weight in want.items():
        assert abs(res.weights[item] - weight) <= 5e-7, item
    assert not res.clamped and abs(res.lambda_ + 0.376094) <= 5e-7


def test_lambda_cap_below_one_keeps_the_leximin_weights():
    # The cap caps the reported lambda, but the stages run on: a block whose
    # least-squares start is below the cap gets the same weights whatever
    # the cap, clamped at the cap when its lambda reaches it, and so the
    # weights do not depend on the order of the items.
    cfg = solver.SolverConfig(lambda_cap=0.3)
    rng = np.random.default_rng(11)
    past = 0
    for block in _blocks() + _hard_crisp_blocks(count=27):
        start = solver._least_squares_start(solver._block(block))[1]
        full, capped = _solve(block), _solve(block, cfg)
        if full is None:
            assert capped is None
            continue
        if start >= 0.3 - 1e-9:
            assert capped.clamped and capped.iterations == 0
            continue
        assert capped.weights == full.weights
        assert capped.clamped == (full.lambda_ >= 0.3 - 1e-9)
        assert capped.lambda_ == min(full.lambda_, 0.3) or capped.clamped
        past += capped.clamped
        perm = rng.permutation(len(block.items))
        moved = _solve(_permuted(block, perm), cfg)
        for i, item in enumerate(block.items):
            assert abs(moved.weights[block.items[perm[i]]] - capped.weights[item]) <= 1e-12
    assert past >= 3
