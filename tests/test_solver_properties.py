"""Differential properties of solve_fpp on generated blocks of 2-10 items:
the least-squares start against an equal-weights start, the returned
weights against lambda_at, item order, and HiGHS."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fahp import (
    TFN,
    ComparisonJudgment,
    ComparisonMatrix,
    InfeasibleJudgmentsError,
    lambda_at,
    solve_fpp,
    solver,
)
from test_solver_invariants import _highs_max_slack, _permuted

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


def _solve(block):
    """solve_fpp's result, or None when the hard sides conflict."""
    try:
        return solve_fpp(block)
    except InfeasibleJudgmentsError:
        return None


def _equal_weights(block, cfg):
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
