"""The in-repo two-phase simplex, cross-checked against scipy.optimize.linprog."""

import collections
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from fahp import simplex, solve_fpp, solver
from fahp.simplex import solve_lp
from test_solver_invariants import _blocks

ROUNDOFF_LPS = Path(__file__).parent / "fixtures" / "roundoff" / "lps.json"


def test_simple_box_maximum():
    # min -x - y subject to x <= 2, y <= 3
    res = solve_lp(c=[-1, -1], a_ub=[[1, 0], [0, 1]], b_ub=[2, 3])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-5.0)
    assert res.x == pytest.approx([2.0, 3.0])


def test_two_constraint_vertex():
    # optimum sits on the intersection of both constraints
    res = solve_lp(c=[-2, -3], a_ub=[[1, 1], [1, 3]], b_ub=[4, 6])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-9.0)
    assert res.x == pytest.approx([3.0, 1.0])


def test_equality_constraint():
    res = solve_lp(c=[1, 1], a_eq=[[1, 1]], b_eq=[4])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(4.0)
    assert sum(res.x) == pytest.approx(4.0)
    assert min(res.x) >= 0


def test_duplicate_equality_rows_are_tolerated():
    res = solve_lp(c=[1, 2], a_eq=[[1, 1], [1, 1]], b_eq=[2, 2])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0)


def test_infeasible():
    # x >= 2 conflicts with x <= 1
    res = solve_lp(c=[1], a_ub=[[-1], [1]], b_ub=[-2, 1])
    assert res.status == "infeasible"


def test_infeasible_equalities():
    res = solve_lp(c=[1, 1], a_eq=[[1, 1], [1, 1]], b_eq=[2, 3])
    assert res.status == "infeasible"


def test_unbounded():
    # objective pushes x1 to infinity while the only bound touches x2
    res = solve_lp(c=[-1, 0], a_ub=[[0, 1]], b_ub=[3])
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
    res = solve_lp(c=c, a_ub=a_ub, b_ub=b_ub)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.05)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        solve_lp(c=[1, 2], a_ub=[[1, 2, 3]], b_ub=[1])


def test_solution_satisfies_constraints():
    a_ub = [[1, 2, 1], [3, 0, 2]]
    b_ub = [4, 6]
    a_eq = [[1, 1, 1]]
    b_eq = [2]
    res = solve_lp(c=[-1, -2, 0.5], a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
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

        ours = solve_lp(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
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


@pytest.mark.parametrize("name", ["phase1_unbounded", "phase2_infeasible_basis"])
def test_roundoff_is_recovered(name):
    # Max-slack LPs from the solver (a 3-item and a 6-item block) whose pivots
    # accumulate enough round-off that phase 1 used to report "unbounded" and
    # phase 2 used to end at a point that violates its rows. Recomputing the
    # tableau from the basis recovers both.
    lp = json.loads(ROUNDOFF_LPS.read_text())[name]
    args = [lp[key] for key in ("c", "a_ub", "b_ub", "a_eq", "b_eq")]
    res = solve_lp(*args)
    ref = linprog(*args[:1], A_ub=args[1], b_ub=args[2], A_eq=args[3], b_eq=args[4],
                  method="highs")
    assert res.status == "optimal"
    assert res.objective == pytest.approx(ref.fun, abs=1e-12)
    assert np.all(np.asarray(args[1]) @ res.x <= np.asarray(args[2]) + 1e-9)


def test_solutions_meet_their_rows_to_round_off(monkeypatch):
    # Every max-slack LP of the random invariant blocks: after the refinement
    # step an optimal solution meets its rows to within a few ulps of the
    # right-hand sides, far inside the 1e-9 that solve_lp checks.
    worst = []

    def checked(c, a_ub, b_ub, a_eq, b_eq, **kwargs):
        res = solve_lp(c, a_ub, b_ub, a_eq, b_eq, **kwargs)
        if res.status == "optimal":
            scale = 1.0 + max(np.abs(b_ub).max(initial=0.0), np.abs(b_eq).max())
            miss = max(
                (a_ub @ res.x - b_ub).max(initial=0.0),
                np.abs(a_eq @ res.x - b_eq).max(),
            )
            worst.append(miss / scale)
        return res

    monkeypatch.setattr(solver, "solve_lp", checked)
    for block in _blocks():
        solve_fpp(block)
    assert len(worst) > 100
    assert max(worst) <= 1e-15


# The row-loop pivoting the vectorized simplex replaced, kept as the
# reference its rank-1 update must match bit for bit.
def _pivot_loop(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def test_vectorized_pivots_match_the_row_loop(rng, monkeypatch):
    # the instances of test_matches_scipy_on_random_instances
    optimal = 0
    for _ in range(60):
        n = int(rng.integers(2, 6))
        m_ub = int(rng.integers(1, 5))
        c = rng.normal(size=n)
        a_ub = rng.normal(size=(m_ub, n))
        b_ub = rng.normal(size=m_ub) + 1.0
        use_eq = bool(rng.integers(0, 2))
        a_eq = rng.normal(size=(1, n)) if use_eq else None
        b_eq = rng.normal(size=1) + 1.0 if use_eq else None

        fast = solve_lp(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        with monkeypatch.context() as patch:
            patch.setattr(simplex, "_pivot", _pivot_loop)
            slow = solve_lp(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        assert fast.status == slow.status
        assert fast.pivots == slow.pivots
        if fast.status == "optimal":
            assert np.array_equal(fast.x, slow.x)
            assert fast.objective == slow.objective
            optimal += 1
    assert optimal >= 10


def _same(res, ref):
    """Whether two LPResults are identical, bit for bit."""
    return (
        res.status == ref.status
        and res.pivots == ref.pivots
        and res.basis == ref.basis
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
        cold = solve_lp(**lp)
        if cold.status != "optimal":
            continue
        assert cold.basis is not None
        res = solve_lp(**lp, basis=cold.basis)
        assert res.status == "optimal"
        assert res.pivots == 0
        assert res.basis == cold.basis
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
        (VERTEX_LP, [0]),  # wrong length
        (VERTEX_LP, [0, 1, 2]),  # wrong length
        (VERTEX_LP, [0, 0]),  # a repeated column
        (VERTEX_LP, [0, 4]),  # out of range
        (VERTEX_LP, [-1, 0]),  # out of range
        (SLIVER_LP, [0, 1]),  # inv @ M is off the identity by more than 1e-8
        (CORNER_LP, [0, 2, 4]),  # x and the slacks of rows 1, 3: row 2 is 0
        (CORNER_LP, [0, 1, 5]),  # out of range
    ],
)
def test_unusable_hint_gives_the_cold_result(lp, hint):
    cold = solve_lp(**lp)
    assert cold.status == "optimal" and cold.pivots > 0
    assert _same(solve_lp(**lp, basis=hint), cold)


def _reaches_the_cold_optimum(lp, hint):
    """Solve lp from hint and cold; both optimal, the same objective within
    1e-12 and a warm solution that meets the rows. Returns both results."""
    cold = solve_lp(**lp)
    res = solve_lp(**lp, basis=hint)
    assert cold.status == res.status == "optimal"
    assert res.objective == pytest.approx(cold.objective, abs=1e-12)
    a_eq = np.asarray(lp.get("a_eq", np.zeros((0, len(lp["c"])))), dtype=float)
    b_eq = np.asarray(lp.get("b_eq", np.zeros(0)), dtype=float)
    a_ub, b_ub = (np.asarray(lp[key], dtype=float) for key in ("a_ub", "b_ub"))
    assert simplex._satisfies(a_ub, b_ub, a_eq, b_eq, res.x)
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
    # tableau: by the dual simplex when it is not primal feasible (with its
    # negative reduced costs shifted to 0 when it is not dual feasible
    # either), then by the primal simplex. It takes no more pivots than the
    # cold solve.
    duals = []
    dual_iterate = simplex._dual_iterate

    def counted(tableau, *args):
        duals.append(tableau[-1, : args[-1]].min())
        return dual_iterate(tableau, *args)

    monkeypatch.setattr(simplex, "_dual_iterate", counted)
    res, cold = _reaches_the_cold_optimum(lp, hint)
    assert res.x == pytest.approx(cold.x, abs=1e-12)
    assert 0 < res.pivots <= cold.pivots
    assert len(duals) == (kind != "primal")
    # a shifted start has no negative reduced cost left
    assert all(d >= 0.0 for d in duals)


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
        first = solve_lp(**lp)
        if first.status != "optimal":
            continue
        moved = {key: np.asarray(value) + 0.3 * rng.normal(size=np.shape(value))
                 for key, value in lp.items()}
        cold = solve_lp(**moved)
        if cold.status != "optimal":
            assert _same(solve_lp(**moved, basis=first.basis), cold)
            kinds[cold.status] += 1
            continue
        args = [moved[key] for key in ("c", "a_ub", "b_ub", "a_eq", "b_eq")]
        assert simplex._warm(*args, first.basis, 10_000) is not None
        _reaches_the_cold_optimum(moved, first.basis)
        kinds[_kind(*args, first.basis)] += 1
    assert min(kinds[k] for k in ("optimal", "primal", "dual", "neither")) >= 10
    assert kinds["infeasible"] and kinds["unbounded"]


def test_infeasible_lp_with_a_hint_reports_infeasible():
    # x >= 2 conflicts with x <= 1, whichever basis is offered
    lp = dict(c=[1], a_ub=[[-1], [1]], b_ub=[-2, 1])
    for hint in ([0, 2], [1, 2], [0, 1]):
        res = solve_lp(**lp, basis=hint)
        assert res.status == "infeasible"
        assert res.basis is None
