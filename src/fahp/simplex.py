"""Small dense simplex used by the feasibility subproblems.

Minimizes c @ x subject to A_ub @ x <= b_ub, A_eq @ x = b_eq, x >= 0, in
the active-set form of the simplex method (Gill, Murray and Wright,
"Numerical Linear Algebra and Optimization", 1991). Each column of the
standard form is read as a constraint: structural column j as -x_j <= 0,
the slack of inequality row r as that row. A basis's nonbasic columns are
its active constraints, and with every equality row they make the working
set: one n x n matrix B (n + 2 columns for feasible_at's max-slack LP)
whose inverse comes once from numpy's LAPACK-backed `inv`, kept only when
B^-1 B is within 1e-8 of the identity. B^-1 gives the vertex x = B^-1 b_W,
the slack h - G x of every constraint (the basic values) and the reduced
costs d = -c B^-1 of the nonbasic columns, which are the LP's duals. A
pivot swaps one row of B for another and updates B^-1 by one rank-1
(Sherman-Morrison) step, or inverts B afresh once a primal pivot's entry
read off its row disagrees with the one from its column. The nonbasic
columns stay the first positions of the working set, since a pivot puts
the column that leaves where the one that enters was.

The arrays are small (tens of rows), so an LP's time is mostly the fixed
cost of each numpy call, not arithmetic. The loop's products on contiguous
arrays are `ndarray.dot` calls, which reach the same BLAS routine as `@`
without its gufunc dispatch, so the results are the same bit for bit.

One loop re-optimises from any basis. While a basic value is below
-_FEAS_TOL it takes a dual pivot (Lemke 1954) on the most negative one;
when a run of dual pivots starts with a negative reduced cost, every
negative one is first raised to 0 (cost shifting, as in Koberstein's "The
dual simplex method", 2005). Otherwise it takes a primal pivot on the true
costs, or stops at the optimum: a start that needs no pivot is certified
as it stands. The entering column of a primal pivot is Bland's lowest-index
improving one, except that a column whose pivot entry would be tiny waits
until no other column can enter. The leaving column comes from Harris's
two-pass ratio test (Math. Programming 5, 1973): pass 1 bounds the step by
the smallest ratio with every basic value relaxed by a small tolerance,
pass 2 takes the largest pivot entry among the columns within that bound,
so a tiny entry on a row that is only at its bound by round-off is not
pivoted on while a larger one fits. The entering column of a dual pivot
comes from the same test, run on the leaving row's entries with the
reduced costs as the gaps. Neither rule keeps Bland's proof that
degenerate vertices cannot cycle, and a cold dual simplex did cycle. So a
solve from the slack basis that passes _HINT_PIVOTS pivots per row and
column falls back to Bland's smallest-index rule (Math. Oper. Res. 2,
1977): a dual pivot takes the lowest-index violated row, a primal pivot
the lowest-index improving column, and the other side of each is the
smallest ratio, ties to the lowest index. That rule ignores pivot sizes,
so after each of its pivots the inverse is taken afresh. The optimal x is
refined twice on B and is reported only once it meets the original rows.

The one entry point is _solve, on a _Form: c, the stacked constraint rows
G = [-I; A_ub; A_eq] and their right-hand sides h. The equality rows must
be linearly independent. The start is a _Basis, a column mask with its
working set; a solve updates it in place and hands it back as _basis would
build it, so a caller can carry one form and one basis from LP to LP,
and a warm LP only re-reads and inverts its working set's rows. A
start whose working set is singular, or whose solve ends in anything but
an optimum or passes _HINT_PIVOTS pivots per row and column, is dropped
for the slack basis, whose verdict is final: every inequality row's slack,
and one structural column per equality row, picked by Gauss-Jordan
elimination with partial pivoting. Sized for problems with tens of rows;
this is not a general-purpose LP library.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# A column improves when its reduced cost is below -_COST_TOL, well below
# the 1e-8 at which the LPs' optima must be resolved: at 1e-9 a column of
# cost -6e-10 was taken as optimal, and a max-slack LP ended 1.6e-11 short
# of its optimum at a vertex whose weights were 0.001 away (in one of a
# block's two item orders).
_COST_TOL = 1e-10
_PIVOT_TOL = 1e-10
_FEAS_TOL = 1e-9
# Harris's relaxation of each right-hand side in the first ratio pass.
_HARRIS_DELTA = 1e-12
# A pivot on an entry this small scales the inverse by its reciprocal. Taken
# on a row that sat at its bound only by round-off, such pivots grew an
# earlier tableau simplex by 1e8 and left a basis singular to round-off.
_SMALL_PIVOT = 1e-5
# A column whose reduced cost is below _COST_TOL but above this is float
# dust from earlier pivots; only a decisively negative cost with no pivot
# row proves an unbounded ray.
_UNBOUNDED_TOL = 1e-7
# Pivots of a solve from the slack basis before it gives up.
_MAX_ITER = 10_000
# Pivots per row and column of the LP before a solve from a hint gives up
# for the slack basis, and past which a solve from the slack basis follows
# Bland's rule. Over the rng 11-68 sweep and the contradictory blocks of
# tests/gates.py, the hinted solves of the former LP solver took at most
# 102 pivots, on 90 rows and 12 columns (0.99 per row and column), where
# the dual simplex of a tableau once cycled to _MAX_ITER from two hints.
_HINT_PIVOTS = 2
# How far inv @ B may be off the identity: for a starting basis, whose
# inverse every pivot updates, and for the final basis, whose inverse only
# refines a solution that must then meet the rows.
_START_INV_TOL = 1e-8
_FINAL_INV_TOL = 1e-3
# Past this relative gap between a primal pivot's entries read off the row and
# the column (2.4e-14 at most over the gates), the inverse is taken afresh.
_DRIFT_TOL = 1e-9


class LPResult(NamedTuple):
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    pivots: int  # working-set exchanges, dual and primal


def _off(inv: np.ndarray, mat: np.ndarray) -> float:
    """How far inv @ mat is off the identity, inf on overflow."""
    with np.errstate(all="ignore"):
        prod = inv.dot(mat)
        prod.ravel()[:: len(mat) + 1] -= 1.0  # the diagonal of the identity
        off = float(np.abs(prod, out=prod).max(initial=0.0))
    return off if off <= math.inf else math.inf  # NaN is off by inf


def _inverse(mat: np.ndarray, tol: float) -> np.ndarray | None:
    """Inverse of a small square matrix, or None when it is singular or so
    ill-conditioned that inv @ mat is off the identity by more than tol (an
    inverse with a non-finite entry is off by inf)."""
    try:
        inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        return None
    if _off(inv, mat) > tol:
        return None
    return inv


def _ratio_test(entries, gaps, allowed, order=None, bland=False) -> int:
    """Harris's two-pass ratio test: the position that leaves (primal) or
    enters (dual) the basis, or -1 when no allowed entry is positive.

    `entries` and `gaps` are lists by position; the candidates are the
    positions in `allowed` (ascending) whose entry is above _PIVOT_TOL.
    Pass 1, run while they are picked, clips each gap at 0 and bounds the
    step by min((gap + delta) / entry). Pass 2 takes, among the candidates
    whose ratio gap / entry is within that bound, the one with the largest
    entry; ties go to the lowest position, or to the lowest `order` value
    when `order` is given. A call has a handful of candidates, so both
    passes run on Python floats, which round as numpy's do. With `bland`,
    Bland's rule replaces both: the smallest ratio, ties as above.
    """
    candidates, bound = [], math.inf
    for p in allowed:
        size = entries[p]
        if size > _PIVOT_TOL:
            gap = gaps[p] if gaps[p] > 0.0 else 0.0
            candidates.append((p, gap, size))
            bound = min(bound, (gap + _HARRIS_DELTA) / size)
    if not candidates:
        return -1
    if bland:
        ratios = [
            (gap / size, p if order is None else order[p])
            for p, gap, size in candidates
        ]
        return candidates[ratios.index(min(ratios))][0]
    best, pick = 0.0, -1
    for p, gap, size in candidates:
        if gap / size <= bound and size >= best:
            if size > best or order is not None and order[p] < order[pick]:
                best, pick = size, p
    return pick


class _Form(NamedTuple):
    """An LP in the form the active-set loop works on: minimize c @ x
    subject to g_k x <= h_k for k < ncols and g_k x = h_k for k >= ncols.

    The first n rows of g are -I (the constraints x >= 0 of the structural
    columns), then the inequality rows, then the equality rows, so column k
    of the standard form, for k < ncols = n + m_ub, is constraint k. A
    caller that solves a run of LPs of one shape may keep one form and
    rewrite its coefficients in place between solves.
    """

    c: np.ndarray
    g: np.ndarray
    h: np.ndarray
    ncols: int


class _Basis(NamedTuple):
    """A basis: `basic` flags its columns, `work` lists its working set (the
    nonbasic columns ascending, then the equality rows; B = g[work]), `hide`
    is inf at the nonbasic columns to keep them out of the tests. A solve
    updates it in place into what _basis builds from the final mask."""

    basic: np.ndarray
    work: np.ndarray
    hide: np.ndarray


def _basis(form: _Form, basic: np.ndarray) -> _Basis:
    """The basis whose columns `basic` flags, with its working set."""
    nonbasic = (~basic).nonzero()[0]
    work = np.concatenate([nonbasic, np.arange(form.ncols, form.h.size)])
    hide = np.zeros(form.ncols)
    hide[nonbasic] = np.inf
    return _Basis(basic, work, hide)


def _reoptimise(form: _Form, basis: _Basis, limit: int) -> LPResult | None:
    """Solve the LP of `form` from `basis` in at most `limit` pivots:
    "optimal", "infeasible" or "unbounded", or None when the start's working
    set is singular, when a primal pivot's entries read off the leaving row
    and the entering column disagree (the updated inverse has drifted) and
    the working set cannot be inverted afresh, or disagree in sign on a
    fresh inverse, or when no solution that meets the rows can be read off
    the final working set. `basis` is updated in place. Raises RuntimeError
    past the limit. Past _HINT_PIVOTS pivots per row and column, which only
    a solve from the slack basis reaches, every pivot follows Bland's rule.

    The working set's rows are read from the form afresh, as its
    coefficients may change between solves. B = g[work], `inv` = B^-1.
    Leaving the constraint at position p of `work` moves x by -B^-1 e_p per
    unit of its slack, so a basic column's entry in the entering column is
    alpha = -g B^-1 e_p, and the entries of the row of a leaving column k
    are -u with u = g_k B^-1.
    """
    c, g, h, ncols = form
    basic, work, hide = basis
    # The positions whose constraint can leave are the first nsoft of work:
    # a pivot puts the basic column that leaves where the nonbasic one was.
    nsoft = work.size - (h.size - ncols)
    mat, rhs = g[work], h[work]
    inv = _inverse(mat, _START_INV_TOL)
    if inv is None:
        return None
    g_cols, h_cols = g[:ncols], h[:ncols]
    cost, pivots, fresh = c, 0, True
    while True:
        x = inv.dot(rhs)
        values = h_cols - g_cols.dot(x)
        values += hide
        leave = int(values.argmin())
        y = cost.dot(inv)  # -d: the reduced cost of each position's column, negated
        costs = y.tolist()
        bland = pivots > _HINT_PIVOTS * h.size
        if values[leave] < -_FEAS_TOL:  # dual pivot
            if bland:  # the lowest-index violated row leaves
                leave = int((values < -_FEAS_TOL).argmax())
            if cost is c and max(costs[:nsoft], default=0.0) > _COST_TOL:
                # cost shifting: raise every negative reduced cost to 0
                shift = np.zeros(y.size)
                np.maximum(y[:nsoft], 0.0, out=shift[:nsoft])
                cost, y = c - shift.dot(mat), y - shift
                costs = y.tolist()
            u = g[leave].dot(inv)
            p = _ratio_test(u.tolist(), [-d for d in costs], range(nsoft), work, bland)
            if p < 0:
                return LPResult("infeasible", None, None, pivots)
        elif cost is not c:  # primal feasible: restore the true costs
            cost = c
            continue
        else:  # primal pivot
            improving = [p for p in range(nsoft) if costs[p] > _COST_TOL]
            if not improving:  # optimal
                break
            step = small = None
            gaps = values.tolist()
            for p in sorted(improving, key=work.__getitem__):
                alpha = -(g_cols @ inv[:, p])
                rows = ((alpha > _PIVOT_TOL) & basic).nonzero()[0].tolist()
                row = _ratio_test(alpha.tolist(), gaps, rows, None, bland)
                if row >= 0:
                    if bland or alpha[row] >= _SMALL_PIVOT:
                        step = row, p, alpha[row]
                        break
                    small = small or (row, p, alpha[row])
                elif costs[p] > _UNBOUNDED_TOL:
                    return LPResult("unbounded", None, None, pivots)
                # else: cost is float dust; treat the column as non-improving
            step = step or small
            if step is None:
                break
            leave, p, entry = step
            u = g[leave].dot(inv)  # u[p] = -entry in exact arithmetic
            if not fresh and abs(u[p] + entry) > _DRIFT_TOL * entry:
                inv, fresh = _inverse(mat, _START_INV_TOL), True  # the updates drifted
                if inv is None:
                    return None
                continue
            if not u[p] < 0.0:
                return None
        if pivots == limit:
            raise RuntimeError("simplex iteration limit exceeded")
        col = inv[:, p] / u[p]
        inv -= col[:, None] * u
        inv[:, p] = col
        fresh = False
        enter = work[p]
        basic[enter], basic[leave] = True, False
        hide[enter], hide[leave] = 0.0, np.inf
        work[p], mat[p], rhs[p] = leave, g[leave], h[leave]
        pivots += 1
        if bland:  # Bland's rule ignores pivot sizes: invert afresh
            inv, fresh = _inverse(mat, _FINAL_INV_TOL), True
            if inv is None:
                return None

    if pivots:
        if _off(inv, mat) > _START_INV_TOL:
            inv = _inverse(mat, _FINAL_INV_TOL)
            if inv is None:
                return None
            x = inv.dot(rhs)
        work[:nsoft] = (~basic).nonzero()[0]  # back in ascending order
    for _ in range(2):
        x += inv.dot(rhs - mat.dot(x))
    x[~basic[: c.size]] = 0.0
    np.maximum(x, 0.0, out=x)
    if not _satisfies(form, x):
        return None
    return LPResult("optimal", x, float(c.dot(x)), pivots)


def _slack_basis(form: _Form) -> np.ndarray:
    """The cold start: the slack basis's column mask.

    Gauss-Jordan elimination with partial pivoting over the equality rows in
    order picks for each the structural column of its largest entry. Every
    inequality row's slack is basic too.
    """
    c, g, h, ncols = form
    n = c.size
    system = g[ncols:].copy()
    basic = np.zeros(ncols, dtype=bool)
    basic[n:] = True
    for r, row in enumerate(system):
        col = int(np.abs(row).argmax())
        row /= row[col]
        system[r + 1 :] -= system[r + 1 :, col, None] * row
        basic[col] = True
    return basic


def _satisfies(form: _Form, x: np.ndarray) -> bool:
    """Whether x meets the form's inequality and equality rows to within
    _FEAS_TOL, relative to the size of their right-hand sides (a miss within
    _FEAS_TOL is within that whatever their size)."""
    n, ncols = form.c.size, form.ncols
    rhs = form.h[n:]
    miss = form.g[n:].dot(x)
    miss -= rhs
    eq = miss[ncols - n :]  # an equality row misses both ways
    np.abs(eq, out=eq)
    worst = miss.max(initial=0.0)
    return bool(worst <= _FEAS_TOL or worst <= _FEAS_TOL * (1.0 + np.abs(rhs).max()))


def _solve(form: _Form, basis: _Basis | None = None):
    """The one LP routine: (the result, the final basis).

    The LP is re-optimised from `basis`, when given, in at most
    _HINT_PIVOTS pivots per row and column; `basis` is updated in place. A
    start whose working set is singular, or whose solve ends in anything but
    an optimum or passes that limit, leaves the solve from the slack basis
    (and its pivot count) as without a start. The final basis is None when
    the LP is not optimal.

    Raises RuntimeError when round-off defeats the solve from the slack
    basis (its working set is singular to round-off, a pivot entry read off
    the leaving row has the wrong sign because the updated inverse lost its
    accuracy, or the solution read off its final working set misses the
    rows) or when it takes more than _MAX_ITER pivots.
    """
    if basis is not None:
        try:
            warm = _reoptimise(form, basis, _HINT_PIVOTS * form.h.size)
        except RuntimeError:  # the pivot limit
            warm = None
        if warm is not None and warm.status == "optimal":
            return warm, basis
    basis = _basis(form, _slack_basis(form))
    res = _reoptimise(form, basis, _MAX_ITER)
    if res is None:
        raise RuntimeError(
            "simplex round-off: the working set's inverse lost its accuracy, "
            "or the solution violates its constraints"
        )
    return res, (basis if res.status == "optimal" else None)
