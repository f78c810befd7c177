"""The in-repo simplex, cross-checked against scipy.optimize.linprog."""

import collections
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from fahp import feasible_at, simplex, solve_fpp
from test_solver_invariants import _blocks, _lp_arrays

ROUNDOFF_LPS = Path(__file__).parent / "fixtures" / "roundoff" / "lps.json"


def _arrays(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
    """The LP's arrays as floats, with no rows where a pair is missing."""
    c = np.asarray(c, dtype=float)

    def rows(a, b):
        if b is None:
            return np.zeros((0, c.size)), np.zeros(0)
        return np.asarray(a, dtype=float).reshape(-1, c.size), np.asarray(b, dtype=float)

    return (c, *rows(a_ub, b_ub), *rows(a_eq, b_eq))


def _form(c, a_ub, b_ub, a_eq, b_eq):
    """The simplex form of min c @ x s.t. a_ub @ x <= b_ub, a_eq @ x = b_eq,
    x >= 0: the rows -I, a_ub and a_eq, in the layout _Form documents."""
    n, m_ub = c.size, b_ub.size
    g = np.zeros((n + m_ub + b_eq.size, n))
    g[:n].flat[:: n + 1] = -1.0
    g[n : n + m_ub] = a_ub
    g[n + m_ub :] = a_eq
    return simplex._Form(c, g, np.concatenate([np.zeros(n), b_ub, b_eq]), n + m_ub)


def _basis(form, columns):
    """The basis of `form` whose basic columns are `columns`."""
    basic = np.zeros(form.ncols, dtype=bool)
    basic[list(columns)] = True
    return simplex._basis(form, basic)


def _solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, *, hint=None):
    """simplex._solve on the form of the LP, started from the basis whose
    basic columns `hint` lists (structural columns, then the slack of
    inequality row r as column n + r): the result and the final basis's
    columns, or None when it is not optimal."""
    form = _form(*_arrays(c, a_ub, b_ub, a_eq, b_eq))
    res, final = simplex._solve(form, None if hint is None else _basis(form, hint))
    return res, None if final is None else tuple(final.basic.nonzero()[0].tolist())


def test_simple_box_maximum():
    # min -x - y subject to x <= 2, y <= 3
    res, _ = _solve(c=[-1, -1], a_ub=[[1, 0], [0, 1]], b_ub=[2, 3])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-5.0)
    assert res.x == pytest.approx([2.0, 3.0])


def test_two_constraint_vertex():
    # optimum sits on the intersection of both constraints
    res, _ = _solve(c=[-2, -3], a_ub=[[1, 1], [1, 3]], b_ub=[4, 6])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-9.0)
    assert res.x == pytest.approx([3.0, 1.0])


def test_equality_constraint():
    res, _ = _solve(c=[1, 1], a_eq=[[1, 1]], b_eq=[4])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(4.0)
    assert sum(res.x) == pytest.approx(4.0)
    assert min(res.x) >= 0


def test_infeasible():
    # x >= 2 conflicts with x <= 1
    res, _ = _solve(c=[1], a_ub=[[-1], [1]], b_ub=[-2, 1])
    assert res.status == "infeasible"


def test_unbounded():
    # objective pushes x1 to infinity while the only bound touches x2
    res, _ = _solve(c=[-1, 0], a_ub=[[0, 1]], b_ub=[3])
    assert res.status == "unbounded"


def test_cycling_prone_instance():
    # the classic degenerate instance that cycles under naive pivoting;
    # the anti-cycling rule must terminate at objective -1/20
    c = [-0.75, 150.0, -0.02, 6.0]
    a_ub = [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    b_ub = [0.0, 0.0, 1.0]
    res, _ = _solve(c=c, a_ub=a_ub, b_ub=b_ub)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.05)


def test_solution_satisfies_constraints():
    a_ub = [[1, 2, 1], [3, 0, 2]]
    b_ub = [4, 6]
    a_eq = [[1, 1, 1]]
    b_eq = [2]
    res, _ = _solve(c=[-1, -2, 0.5], a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    assert res.status == "optimal"
    x = np.asarray(res.x)
    assert np.all(x >= -1e-12)
    assert np.all(np.asarray(a_ub) @ x <= np.asarray(b_ub) + 1e-9)
    assert np.asarray(a_eq) @ x == pytest.approx(np.asarray(b_eq), abs=1e-9)


def test_matches_scipy_on_random_instances(rng):
    agree = 0
    for trial in range(60):
        n = int(rng.integers(2, 6))
        m_ub = int(rng.integers(1, 5))
        c = rng.normal(size=n)
        a_ub = rng.normal(size=(m_ub, n))
        b_ub = rng.normal(size=m_ub) + 1.0
        use_eq = bool(rng.integers(0, 2))
        a_eq = rng.normal(size=(1, n)) if use_eq else None
        b_eq = rng.normal(size=1) + 1.0 if use_eq else None

        ours, _ = _solve(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=(0, None), method="highs")

        if ref.status == 0:
            assert ours.status == "optimal", f"trial {trial}: scipy optimal, ours {ours.status}"
            assert ours.objective == pytest.approx(ref.fun, abs=1e-7)
            agree += 1
        elif ref.status == 2:
            assert ours.status == "infeasible", f"trial {trial}"
        elif ref.status == 3:
            assert ours.status == "unbounded", f"trial {trial}"
    assert agree >= 10  # the population must actually exercise the optimal path


@pytest.mark.parametrize(
    "name", ["phase1_unbounded", "phase2_infeasible_basis", "parallel_rows"]
)
def test_roundoff_is_recovered(name):
    # Max-slack LPs from the solver (a 3-item and a 6-item block) whose pivots
    # accumulate enough round-off that phase 1 used to report "unbounded" and
    # phase 2 used to end at a point that violates its rows, and a 5-weight
    # one whose rows 1 and 4 are parallel to 1.2e-7: the tableau simplex
    # pivoted on a 1.2e-7 entry there, ended "optimal" at a basis whose
    # solution misses the rows by 1e-6 and raised "simplex round-off". The
    # cold solve must reach the optimum of each with a solution that meets
    # the rows.
    _reaches_the_highs_optimum(json.loads(ROUNDOFF_LPS.read_text())[name])


def _reaches_the_highs_optimum(lp):
    """Solve the fixture LP cold: optimal, HiGHS's objective within 1e-12
    and a solution that meets the rows. Returns the result."""
    args = [lp[key] for key in ("c", "a_ub", "b_ub", "a_eq", "b_eq")]
    res, _ = _solve(*args)
    ref = linprog(*args[:1], A_ub=args[1], b_ub=args[2], A_eq=args[3], b_eq=args[4],
                  method="highs")
    assert res.status == "optimal"
    assert res.objective == pytest.approx(ref.fun, abs=1e-12)
    assert np.all(np.asarray(args[1]) @ res.x <= np.asarray(args[2]) + 1e-9)
    return res


@pytest.mark.parametrize("name", ["dual_cycle", "bland_drift"])
def test_cold_solve_past_the_fallback_threshold(name):
    # Cold LPs of feasible_at that pass _HINT_PIVOTS pivots per row and
    # column, where Bland's rule takes over. dual_cycle is the LP at lambda
    # -1000 of an 8-item block, the 119th of 150 drawn by _random_block
    # (2-10 items) from rng seed 3: 56 rows over 10 columns. Its dual
    # pivots on the most negative row, with Harris's ratio test, came back
    # to the basis of pivot 41 at pivot 56 and repeated that cycle until
    # the iteration limit. bland_drift is the LP at lambda -10^3.2 of the
    # 246th seed-11 sweep block of tests/gates.py, reordered: 90 rows over
    # 12 columns. Bland's pivots ignore entry sizes, and with rank-1
    # updates its inverse drifted until a reduced cost of 2.8e-5 on t's
    # negative part read as an unbounded ray; a fresh inverse after each
    # such pivot reaches the optimum.
    lp = json.loads(ROUNDOFF_LPS.read_text())[name]
    res = _reaches_the_highs_optimum(lp)
    rows = len(lp["c"]) + len(lp["b_ub"]) + len(lp["b_eq"])
    assert simplex._HINT_PIVOTS * rows < res.pivots < simplex._MAX_ITER


def test_solutions_meet_their_rows_to_round_off(monkeypatch):
    # feasible_at's max-slack LP of each random invariant block at a few
    # levels: after the refinement step an optimal solution meets its rows
    # to within a few ulps of the right-hand sides, far inside the 1e-9
    # that _satisfies checks.
    worst = []
    solve = simplex._solve

    def checked(form, basic=None):
        res, final = solve(form, basic)
        if res.status == "optimal":
            a_ub, b_ub, a_eq, b_eq = (
                _lp_arrays(form)[key] for key in ("a_ub", "b_ub", "a_eq", "b_eq")
            )
            scale = 1.0 + max(np.abs(b_ub).max(initial=0.0), np.abs(b_eq).max())
            miss = max(
                (a_ub @ res.x - b_ub).max(initial=0.0),
                np.abs(a_eq @ res.x - b_eq).max(),
            )
            worst.append(miss / scale)
        return res, final

    monkeypatch.setattr(simplex, "_solve", checked)
    for block in _blocks():
        best = solve_fpp(block).lambda_
        for lam in (1.0, best, best - 0.5, -10.0):
            feasible_at(block, lam)
    assert len(worst) > 100
    assert max(worst) <= 1e-15


def _working_set(lp, basis):
    """The working matrix of `basis`: the constraint rows of its nonbasic
    columns (-e_j for structural j, row r for the slack of row r), then the
    equality rows."""
    c = np.asarray(lp["c"], dtype=float)
    n = c.size
    a_eq = np.asarray(lp.get("a_eq", np.zeros((0, n))), dtype=float)
    rows = np.vstack([-np.eye(n), np.asarray(lp["a_ub"], dtype=float)])
    nonbasic = sorted(set(range(len(rows))) - set(basis))
    return np.vstack([rows[nonbasic], a_eq])


def test_updated_inverse_matches_a_fresh_one(rng, monkeypatch):
    # The instances of test_matches_scipy_on_random_instances. After the
    # last pivot, the inverse that one rank-1 update per pivot kept must
    # match np.linalg.inv of the final working matrix. _off sees the start's
    # inverse and then, in the final drift check, the updated one; a third
    # call would be a fresh inverse taken because the updated one drifted.
    seen = []
    off = simplex._off

    def recorded(inv, mat):
        seen.append((inv.copy(), mat.copy()))
        return off(inv, mat)

    monkeypatch.setattr(simplex, "_off", recorded)
    updated = 0
    for _ in range(60):
        n = int(rng.integers(2, 6))
        m_ub = int(rng.integers(1, 5))
        lp = dict(c=rng.normal(size=n), a_ub=rng.normal(size=(m_ub, n)),
                  b_ub=rng.normal(size=m_ub) + 1.0)
        if rng.integers(0, 2):
            lp.update(a_eq=rng.normal(size=(1, n)), b_eq=rng.normal(size=1) + 1.0)
        seen.clear()
        res, basis = _solve(**lp)
        if res.status != "optimal" or not res.pivots:
            continue
        assert len(seen) == 2
        inv, mat = seen[-1]
        assert sorted(map(tuple, mat)) == sorted(map(tuple, _working_set(lp, basis)))
        fresh = np.linalg.inv(mat)
        assert np.abs(inv - fresh).max() <= 1e-12 * np.abs(fresh).max()
        updated += 1
    assert updated >= 10


def _same(solved, ref):
    """Whether two (LPResult, final basis) pairs are identical, bit for bit."""
    (res, basis), (ref, ref_basis) = solved, ref
    return (
        res.status == ref.status
        and res.pivots == ref.pivots
        and basis == ref_basis
        and res.objective == ref.objective
        and (res.x is ref.x or np.array_equal(res.x, ref.x))
    )


def test_optimal_basis_passed_back_returns_the_same_x(rng):
    # an optimal cold basis, passed back as the hint, is certified without
    # a pivot: on the random instances above and the solver's round-off LPs
    lps = [
        dict(c=[-2, -3], a_ub=[[1, 1], [1, 3]], b_ub=[4, 6]),
        dict(c=[-1, -2, 0.5], a_ub=[[1, 2, 1], [3, 0, 2]], b_ub=[4, 6],
             a_eq=[[1, 1, 1]], b_eq=[2]),
    ]
    for lp in json.loads(ROUNDOFF_LPS.read_text()).values():
        lps.append({key: lp[key] for key in ("c", "a_ub", "b_ub", "a_eq", "b_eq")})
    for _ in range(60):
        n, m_ub = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        lps.append(dict(c=rng.normal(size=n), a_ub=rng.normal(size=(m_ub, n)),
                        b_ub=rng.normal(size=m_ub) + 1.0))
    warm = 0
    for lp in lps:
        cold, cold_basis = _solve(**lp)
        if cold.status != "optimal":
            continue
        assert cold_basis is not None
        res, basis = _solve(**lp, hint=cold_basis)
        assert res.status == "optimal"
        assert res.pivots == 0
        assert basis == cold_basis
        assert res.x == pytest.approx(cold.x, abs=1e-12)
        assert res.objective == pytest.approx(cold.objective, abs=1e-12)
        warm += 1
    assert warm >= 20


# min -2x - 3y s.t. x + y <= 4, x + 3y <= 6: the optimal basis is {x, y};
# columns are x, y, then the slacks of the two rows
VERTEX_LP = dict(c=[-2, -3], a_ub=[[1, 1], [1, 3]], b_ub=[4, 6])
# min -x - y s.t. x <= 2, y <= 3
BOX_LP = dict(c=[-1, -1], a_ub=[[1, 0], [0, 1]], b_ub=[2, 3])
# min -x - 2y s.t. x <= 3, y <= 2, x + y <= 4
CORNER_LP = dict(c=[-1, -2], a_ub=[[1, 0], [0, 1], [1, 1]], b_ub=[3, 2, 4])
# min -x - y s.t. 0.1 x + 0.3 y <= 1, 0.1 x + (0.3 + 1e-13) y <= 1: the two
# rows are parallel to round-off
SLIVER_LP = dict(c=[-1, -1], a_ub=[[0.1, 0.3], [0.1, 0.3 + 1e-13]], b_ub=[1, 1])


@pytest.mark.parametrize(
    "lp, hint",
    [
        (BOX_LP, [1, 3]),  # y basic on the tight row x <= 2: the system is [[0]]
        (VERTEX_LP, [0]),  # one column too few: the working set is not square
        (VERTEX_LP, [0, 1, 2]),  # one column too many
        (VERTEX_LP, [0, 0]),  # a repeated column flags one column: too few
        (SLIVER_LP, [0, 1]),  # inv @ M is off the identity by more than 1e-8
        (CORNER_LP, [0, 2, 4]),  # x and the slacks of rows 1, 3: row 2 is 0
    ],
    # the cases keep the names they had when out-of-range column lists,
    # which a mask cannot hold, were cases 4, 5 and 8
    ids=[f"lp{i}-hint{i}" for i in (0, 1, 2, 3, 6, 7)],
)
def test_unusable_hint_gives_the_cold_result(lp, hint):
    cold = _solve(**lp)
    assert cold[0].status == "optimal" and cold[0].pivots > 0
    assert _same(_solve(**lp, hint=hint), cold)


def _reaches_the_cold_optimum(lp, hint):
    """Solve lp from hint and cold; both optimal, the same objective within
    1e-12 and a warm solution that meets the rows. Returns both results."""
    cold, _ = _solve(**lp)
    res, _ = _solve(**lp, hint=hint)
    assert cold.status == res.status == "optimal"
    assert res.objective == pytest.approx(cold.objective, abs=1e-12)
    a_eq = np.asarray(lp.get("a_eq", np.zeros((0, len(lp["c"])))), dtype=float)
    b_eq = np.asarray(lp.get("b_eq", np.zeros(0)), dtype=float)
    a_ub, b_ub = (np.asarray(lp[key], dtype=float) for key in ("a_ub", "b_ub"))
    c = np.asarray(lp["c"], dtype=float)
    assert simplex._satisfies(_form(c, a_ub, b_ub, a_eq, b_eq), res.x)
    return res, cold


@pytest.mark.parametrize(
    "lp, hint, kind",
    [
        # x = 6 on the tight second row overruns row 1; y and the second
        # slack have costs 3 and 2
        (VERTEX_LP, [0, 2], "dual"),
        # x = 4 on the tight first row: feasible, y still improves
        (VERTEX_LP, [0, 3], "primal"),
        (VERTEX_LP, [2, 3], "primal"),  # the slack basis
        # x = 4 on the tight row x + y <= 4 overruns x <= 3, and y improves
        (CORNER_LP, [0, 2, 3], "neither"),
    ],
)
def test_stale_hint_is_reoptimised(lp, hint, kind, monkeypatch):
    # A nonsingular hint that is not optimal is re-optimised from its own
    # working set: by dual pivots when it is not primal feasible (with its
    # negative reduced costs shifted to 0 when it is not dual feasible
    # either), then by primal pivots. It takes no more pivots than the cold
    # solve.
    duals = []
    ratio_test = simplex._ratio_test

    def counted(entries, gaps, allowed, order=None, bland=False):
        if order is not None:  # the dual ratio test breaks ties by column
            duals.append(min([0.0] + [gaps[p] for p in allowed]))
        return ratio_test(entries, gaps, allowed, order, bland)

    monkeypatch.setattr(simplex, "_ratio_test", counted)
    res, cold = _reaches_the_cold_optimum(lp, hint)
    assert res.x == pytest.approx(cold.x, abs=1e-12)
    assert 0 < res.pivots <= cold.pivots
    assert bool(duals) == (kind != "primal")
    # a shifted start has no negative reduced cost left
    assert all(d >= 0.0 for d in duals)


def _numpy_ratio_test(entries, gaps, allowed, order=None, bland=False) -> int:
    """Harris's two-pass ratio test, or with `bland` the smallest ratio, as
    whole-array numpy operations, the reference for simplex._ratio_test,
    which runs on the candidates as Python floats."""
    candidates = ((entries > simplex._PIVOT_TOL) & allowed).nonzero()[0]
    if candidates.size <= 1:
        return int(candidates[0]) if candidates.size else -1
    sizes = entries[candidates]
    gaps = np.maximum(gaps[candidates], 0.0)
    if bland:
        ratios = gaps / sizes
        top = candidates[ratios == ratios.min()].tolist()
    else:
        fits = gaps / sizes <= ((gaps + simplex._HARRIS_DELTA) / sizes).min()
        sizes = np.where(fits, sizes, 0.0)
        top = candidates[sizes == sizes.max()].tolist()
    return top[0] if order is None else min(top, key=order.__getitem__)


@st.composite
def ratio_tests(draw):
    """Entries, gaps, the allowed mask and a tie-breaking order for one
    ratio test. Entries and gaps are drawn from small pools, so that sizes
    and ratios tie; the pools hold zero, negative values, values at and
    below the pivot tolerance, gaps within Harris's relaxation of each
    other and infinite gaps."""
    size = draw(st.integers(1, 12))
    finite = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    special = st.sampled_from([0.0, -0.0, 1e-10, 2e-10, 1e-12, 1e-5, 1.0, 2.0])
    entry_pool = draw(st.lists(finite | special, min_size=1, max_size=4))
    gap_pool = draw(st.lists(
        finite | special | st.sampled_from([np.inf, 5e-13, -1e-13]), min_size=1, max_size=4
    ))
    entries = np.array([draw(st.sampled_from(entry_pool)) for _ in range(size)])
    gaps = np.array([draw(st.sampled_from(gap_pool)) for _ in range(size)])
    # a gap proportional to its entry ties the ratios exactly
    for i in draw(st.lists(st.integers(0, size - 1), max_size=size)):
        gaps[i] = 0.5 * entries[i]
    allowed = np.array([draw(st.booleans()) for _ in range(size)])
    order = np.array(draw(st.permutations(range(size))))
    return entries, gaps, allowed, order


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(ratio_tests())
def test_ratio_test_matches_the_numpy_two_pass_test(case):
    entries, gaps, allowed, order = case
    for tie_break in (None, order):
        for bland in (False, True):
            ours = simplex._ratio_test(
                entries.tolist(), gaps.tolist(), allowed.nonzero()[0].tolist(),
                tie_break, bland,
            )
            assert ours == _numpy_ratio_test(entries, gaps, allowed, tie_break, bland)


def _kind(c, a_ub, b_ub, a_eq, b_eq, hint):
    """Whether the basis `hint` is "optimal", "primal" or "dual" feasible
    only, or "neither", from a dense solve of its basis matrix."""
    m_ub = len(b_ub)
    a = np.hstack([np.vstack([a_ub, a_eq]), np.eye(m_ub + len(b_eq))[:, :m_ub]])
    cost = np.concatenate([c, np.zeros(m_ub)])
    basis = a[:, list(hint)]
    primal = np.linalg.solve(basis, np.concatenate([b_ub, b_eq])).min() >= -1e-9
    dual = (cost - np.linalg.solve(basis.T, cost[list(hint)]) @ a).min() >= -1e-10
    return {(True, True): "optimal", (True, False): "primal",
            (False, True): "dual", (False, False): "neither"}[primal, dual]


def test_hints_of_perturbed_lps_reach_the_cold_optimum(rng):
    # The final basis of a random LP is the hint for the same LP with its
    # coefficients perturbed, as the solver's consecutive LPs are. Every
    # class of hint turns up, and none falls back to the cold solve. When the
    # perturbed LP is infeasible or unbounded, the hint changes nothing.
    kinds = collections.Counter()
    for _ in range(200):
        n, m_ub = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        lp = dict(c=rng.normal(size=n), a_ub=rng.normal(size=(m_ub, n)),
                  b_ub=rng.normal(size=m_ub) + 1.0,
                  a_eq=np.abs(rng.normal(size=(1, n))) + 0.1, b_eq=[1.0])
        first, basis = _solve(**lp)
        if first.status != "optimal":
            continue
        moved = {key: np.asarray(value) + 0.3 * rng.normal(size=np.shape(value))
                 for key, value in lp.items()}
        cold = _solve(**moved)
        if cold[0].status != "optimal":
            assert _same(_solve(**moved, hint=basis), cold)
            kinds[cold[0].status] += 1
            continue
        args = [moved[key] for key in ("c", "a_ub", "b_ub", "a_eq", "b_eq")]
        form = _form(*args)
        warm = simplex._reoptimise(
            form, _basis(form, basis), simplex._HINT_PIVOTS * form.h.size
        )
        assert warm is not None and warm.status == "optimal"
        _reaches_the_cold_optimum(moved, basis)
        kinds[_kind(*args, basis)] += 1
    assert min(kinds[k] for k in ("optimal", "primal", "dual", "neither")) >= 10
    assert kinds["infeasible"] and kinds["unbounded"]


def test_infeasible_lp_with_a_hint_reports_infeasible():
    # x >= 2 conflicts with x <= 1, whichever basis is offered
    lp = dict(c=[1], a_ub=[[-1], [1]], b_ub=[-2, 1])
    for hint in ([0, 2], [1, 2], [0, 1]):
        res, basis = _solve(**lp, hint=hint)
        assert res.status == "infeasible"
        assert basis is None


def _max_slack_lp(n, sides, floor=1e-6):
    """The max-slack LP of the solver's former Dinkelbach steps, of which
    feasible_at's LP is the unit-scale case: max t subject to rows @ w + t *
    scale <= 0 and sum w = 1 over v = w - floor, with t = tp - tn. Each side
    (r, c, upper, q, scale) is the row w_r - q w_c <= 0 when `upper`, else
    q w_c - w_r <= 0; a hard side has scale 0."""
    rows, scale = np.zeros((len(sides), n)), np.zeros(len(sides))
    for i, (r, c, upper, q, s) in enumerate(sides):
        sign = 1.0 if upper else -1.0
        rows[i, r], rows[i, c], scale[i] = sign, -sign * q, s
    a_eq = np.zeros((1, n + 2))
    a_eq[0, :n] = 1.0
    return dict(
        c=np.concatenate([np.zeros(n), [-1.0, 1.0]]),
        a_ub=np.column_stack([rows, scale, -scale]),
        b_ub=-floor * rows.sum(axis=1),
        a_eq=a_eq,
        b_eq=[1.0 - n * floor],
    )


@st.composite
def max_slack_lps(draw):
    """A max-slack LP of 2-8 weights whose sides have ratios in [1/9, 9],
    about a fifth of them hard, and the same LP with every ratio and scale
    moved by up to 10 %."""
    n = draw(st.integers(2, 8))
    sides, moved = [], []
    for _ in range(draw(st.integers(1, 3 * n))):
        r = draw(st.integers(0, n - 1))
        c = (r + draw(st.integers(1, n - 1))) % n
        upper = draw(st.booleans())
        q = math.exp(draw(st.floats(-math.log(9), math.log(9))))
        scale = 0.0 if draw(st.integers(0, 4)) == 0 else draw(st.floats(0.01, 5.0))
        dq, ds = (math.exp(draw(st.floats(-0.1, 0.1))) for _ in range(2))
        sides.append((r, c, upper, q, scale))
        moved.append((r, c, upper, q * dq, scale * ds))
    return _max_slack_lp(n, sides), _max_slack_lp(n, moved)


HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}
# HiGHS's default feasibility tolerance of 1e-7 accepts a row missed by
# 6e-8, far outside the simplex's 1e-9.
HIGHS_TOLERANCES = dict(primal_feasibility_tolerance=1e-10,
                        dual_feasibility_tolerance=1e-10)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(max_slack_lps())
def test_max_slack_lps_agree_with_highs(lps):
    # Solved cold, and from the final basis of a perturbed copy as the
    # solver's consecutive Dinkelbach LPs once were, each LP has HiGHS's status and, when
    # optimal, its objective within 1e-9 (1 + |objective|).
    lp, moved = lps
    ref = linprog(lp["c"], A_ub=lp["a_ub"], b_ub=lp["b_ub"], A_eq=lp["a_eq"],
                  b_eq=lp["b_eq"], method="highs", options=HIGHS_TOLERANCES)
    hint = _solve(**moved)[1]
    for res, _ in (_solve(**lp), _solve(**lp, hint=hint)):
        assert res.status == HIGHS_STATUS[ref.status]
        if res.status == "optimal":
            assert abs(res.objective - ref.fun) <= 1e-9 * (1.0 + abs(ref.fun))


def test_off_is_zero_for_an_exact_inverse():
    mat = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 4.0], [0.0, 0.5, 0.0]])
    assert simplex._off(np.linalg.inv(mat), mat) == 0.0
    assert simplex._off(np.eye(1), np.eye(1)) == 0.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_off_is_inf_for_a_non_finite_inverse(bad):
    mat = np.array([[1.0, 2.0], [3.0, 4.0]])
    inv = np.linalg.inv(mat)
    inv[1, 0] = bad
    assert simplex._off(inv, mat) == math.inf


def test_off_is_inf_when_the_product_overflows():
    mat = np.array([[1e300, 1e300], [1e300, -1e300]])
    inv = np.full((2, 2), 1e300)
    assert simplex._off(inv, mat) == math.inf


def _two_max_satisfies(form, x):
    """_satisfies as two maxima, over the inequality and the equality
    misses, the reference for its one pass."""
    n, m_ub = form.c.size, form.ncols - form.c.size
    rhs = form.h[n:]
    tol = simplex._FEAS_TOL * (1.0 + np.abs(rhs).max(initial=0.0))
    miss = form.g[n:] @ x - rhs
    return bool(
        miss[:m_ub].max(initial=0.0) <= tol
        and np.abs(miss[m_ub:]).max(initial=0.0) <= tol
    )


_SATISFIES_FORMS = {
    "no inequality rows": (np.ones(2), np.zeros((0, 2)), np.zeros(0),
                           np.array([[1.0, 1.0]]), np.array([1.0])),
    "no equality rows": (np.ones(2), np.array([[1.0, -1.0], [0.0, 1.0]]),
                         np.array([0.25, 0.5]), np.zeros((0, 2)), np.zeros(0)),
    "an equality row violated": (np.ones(3), np.array([[1.0, 0.0, 1.0]]),
                                 np.array([2.0]), np.array([[1.0, 1.0, 1.0],
                                                            [0.0, 1.0, -1.0]]),
                                 np.array([1.0, 0.5])),
}


@pytest.mark.parametrize("arrays", _SATISFIES_FORMS.values(), ids=_SATISFIES_FORMS)
def test_satisfies_matches_the_two_max_test(arrays, rng):
    form = _form(*arrays)
    n = form.c.size
    points = [rng.uniform(0.0, 1.0, n) for _ in range(200)]
    # points that meet the equality rows, and points that miss one by
    # about the tolerance
    for x in points[:100]:
        a_eq, b_eq = arrays[3], arrays[4]
        if b_eq.size:
            fix = np.linalg.lstsq(a_eq, b_eq - a_eq @ x, rcond=None)[0]
            points.append(x + fix)
            points.append(x + fix + rng.choice([-2e-9, 2e-9, 5e-10]))
    verdicts = collections.Counter()
    for x in points:
        ours = simplex._satisfies(form, x)
        assert ours == _two_max_satisfies(form, x)
        verdicts[ours] += 1
    assert verdicts[True] and verdicts[False]


def test_hint_whose_inverse_loses_its_accuracy_gives_the_cold_result():
    # A max-slack LP of a 7-item block whose narrow sides sit at about
    # 1e-4 of m, and the final basis of the LP before it. After 50 pivots
    # from that hint the inverse holds entries near 1e21; the column of the
    # entering constraint gave a pivot entry of 0.99 while the row of the
    # leaving one gave exactly 0, and dividing by it warned and filled the
    # inverse with inf and NaN. The hinted solve now stops there, and the
    # LP is solved from the slack basis, warning-free.
    lp = json.loads(ROUNDOFF_LPS.read_text())["lost_inverse"]
    args = [lp[key] for key in ("c", "a_ub", "b_ub", "a_eq", "b_eq")]
    cold = _solve(*args)
    assert cold[0].status == "optimal"
    assert _same(_solve(*args, hint=lp["basis"]), cold)


def test_drifted_inverse_is_taken_afresh(monkeypatch):
    # lost_inverse from its hint: a dual pivot on an entry of 3.9e-10 leaves
    # the working set singular to round-off (condition number about 1e22),
    # and the updated inverse grows to 1.7e21. At the first primal pivot the
    # entry read off the leaving row (0) and the one the entering column
    # gave (0.99) disagree past _DRIFT_TOL, so the inverse is taken afresh;
    # that working set cannot be inverted, so the hint is given up there:
    # _inverse runs twice, and the second time finds no inverse.
    lp = json.loads(ROUNDOFF_LPS.read_text())["lost_inverse"]
    form = _form(*_arrays(*(lp[key] for key in ("c", "a_ub", "b_ub", "a_eq", "b_eq"))))
    inverse, taken = simplex._inverse, []

    def spied(mat, tol):
        inv = inverse(mat, tol)
        taken.append(None if inv is None else float(np.abs(inv).max()))
        return inv

    monkeypatch.setattr(simplex, "_inverse", spied)
    limit = simplex._HINT_PIVOTS * form.h.size
    assert simplex._reoptimise(form, _basis(form, lp["basis"]), limit) is None
    assert len(taken) == 2 and taken[0] < 1e6 and taken[1] is None
    assert np.linalg.cond(form.g[_basis(form, lp["basis"]).work]) < 1e9
