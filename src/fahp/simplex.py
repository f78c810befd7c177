"""Small dense simplex used by the feasibility subproblems.

Minimizes c @ x subject to A_ub @ x <= b_ub, A_eq @ x = b_eq, x >= 0, in
the active-set form of the simplex method (Gill, Murray and Wright,
"Numerical Linear Algebra and Optimization", 1991). Each column of the
standard form is read as a constraint: structural column j as -x_j <= 0,
the slack of inequality row r as that row. A basis's nonbasic columns are
its active constraints, and with every equality row they make the working
set: one n x n matrix B (n + 2 columns for the solver's max-slack LPs)
whose inverse comes once from numpy's LAPACK-backed `inv`, kept only when
B^-1 B is within 1e-8 of the identity. B^-1 gives the vertex x = B^-1 b_W,
the slack h - G x of every constraint (the basic values) and the reduced
costs d = -c B^-1 of the nonbasic columns, which are the LP's duals. A
pivot swaps one row of B for another and updates B^-1 by one rank-1
(Sherman-Morrison) step. The nonbasic columns stay the first positions of
the working set, since a pivot puts the column that leaves where the one
that enters was.

The arrays are small (tens of rows), so an LP's time is mostly the fixed
cost of each numpy call, not arithmetic. The loop's products on contiguous
arrays are `ndarray.dot` calls, which reach the same BLAS routine as `@`
without its gufunc dispatch, so the results are the same bit for bit; the
final check of the rows is one residual and one maximum.

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
degenerate vertices cannot cycle, so pivot limits stay as guards. The
optimal x is refined twice on B and is reported only once it meets the
original rows.

Without a hint the start is the slack basis: every inequality row's slack,
and one structural column per equality row, picked by Gauss-Jordan
elimination with partial pivoting. An equality row that reduces to 0 = 0 is
dropped as redundant; one that reduces to 0 = b with b nonzero makes the LP
infeasible. A caller that solves a run of LPs of the same shape can pass
the final basis of one (`LPResult.basis`) as the starting basis of the
next. A hint of the wrong length, with a repeated or out-of-range column or
with a singular working set, or whose solve ends in anything but an
optimum, is dropped for the slack basis, whose verdict is final. Sized for
problems with tens of rows; this is not a general-purpose LP library.

Every LP is solved by one routine, _solve, over a prebuilt _Form: c, the
stacked constraint rows G = [-I; A_ub; A_eq] and their right-hand sides h.
solve_lp builds the form from its arrays and turns a basis tuple into the
mask of basic columns that _solve takes. The solver keeps one form per
comparison block, rewrites its coefficients in place between LPs and
passes the final mask of one LP to the next, with no array rebuilt and no
tuple in between. The arithmetic is the same either way, so each result is
bit for bit what solve_lp returns on the same arrays from the same basis.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# A column improves when its reduced cost is below -_COST_TOL. The solver
# stops its Dinkelbach iteration at a slack of 1e-8, so the LPs must resolve
# their optimum well below that: at 1e-9 a column of cost -6e-10 was taken
# as optimal, and a max-slack LP ended 1.6e-11 short of its optimum at a
# vertex whose weights were 0.001 away (in one of a block's two item orders).
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
# for the slack basis. Over the rng 11-68 sweep and the contradictory blocks
# of the solver's tests, a hinted solve took at most 78 pivots (91 rows, 12
# columns) and at most 0.83 per row and column, where the dual simplex of a
# tableau once cycled to _MAX_ITER from two hints.
_HINT_PIVOTS = 2
# How far inv @ B may be off the identity: for a starting basis, whose
# inverse every pivot updates, and for the final basis, whose inverse only
# refines a solution that must then meet the rows.
_START_INV_TOL = 1e-8
_FINAL_INV_TOL = 1e-3


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    pivots: int  # working-set exchanges, dual and primal
    # basic columns of the final basis in ascending order, structural then
    # slack numbering (slack of inequality row r is column n + r); None when
    # not optimal or when a redundant equality row was dropped
    basis: tuple[int, ...] | None = None


def _off(inv: np.ndarray, mat: np.ndarray) -> float:
    """How far inv @ mat is off the identity, inf on overflow."""
    with np.errstate(all="ignore"):
        prod = inv.dot(mat)
        prod.flat[:: len(mat) + 1] -= 1.0
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


def _ratio_test(entries, gaps, allowed, order=None) -> int:
    """Harris's two-pass ratio test: the position that leaves (primal) or
    enters (dual) the basis, or -1 when no allowed entry is positive.

    The candidates are the positions flagged in `allowed` whose entry is
    above _PIVOT_TOL. Pass 1 clips each candidate's gap at 0 and bounds the
    step by min((gap + delta) / entry). Pass 2 takes, among the candidates
    whose ratio gap / entry is within that bound, the one with the largest
    entry; ties go to the lowest position, or to the lowest `order` value
    when `order` is given. A call has a handful of candidates, and mostly
    one of them fits, so both passes run on them as Python floats, which
    round as numpy's do, rather than as a dozen whole-array numpy calls.
    """
    candidates = ((entries > _PIVOT_TOL) & allowed).nonzero()[0]
    if candidates.size <= 1:
        return int(candidates[0]) if candidates.size else -1
    sizes = entries[candidates].tolist()
    gaps = [gap if gap > 0.0 else 0.0 for gap in gaps[candidates].tolist()]
    bound = min((gap + _HARRIS_DELTA) / size for gap, size in zip(gaps, sizes))
    best, top = 0.0, []
    for p, gap, size in zip(candidates.tolist(), gaps, sizes):
        if gap / size <= bound:
            if size > best:
                best, top = size, [p]
            elif size == best:
                top.append(p)
    return top[0] if order is None else min(top, key=order.__getitem__)


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


def _form(c, a_ub, b_ub, a_eq, b_eq) -> _Form:
    """The form of min c @ x s.t. a_ub @ x <= b_ub, a_eq @ x = b_eq, x >= 0."""
    n, m_ub = c.size, b_ub.size
    g = np.zeros((n + m_ub + b_eq.size, n))
    g[:n].flat[:: n + 1] = -1.0
    g[n : n + m_ub] = a_ub
    g[n + m_ub :] = a_eq
    return _Form(c, g, np.concatenate([np.zeros(n), b_ub, b_eq]), n + m_ub)


def _reoptimise(form: _Form, basic: np.ndarray, limit: int) -> LPResult | None:
    """Solve the LP of `form` from the basis whose columns `basic` flags, in
    at most `limit` pivots: "optimal", "infeasible" or "unbounded", or None
    when the start's working set is singular, when a primal pivot's entry
    read off the leaving row does not have the sign its column gave (the
    inverse has lost its accuracy), or when no solution that meets the rows
    can be read off the final working set. `basic` is updated in place and
    ends flagging the final basis. The result's `basis` is left None.
    Raises RuntimeError past the limit.

    `work` lists the working set, so B = g[work] and `inv` = B^-1. Leaving
    the constraint at position p of `work` moves x by -B^-1 e_p per unit of
    its slack, so a basic column's entry in the entering column is
    alpha = -g B^-1 e_p, and the entries of the row of a leaving column k
    are -u with u = g_k B^-1.
    """
    c, g, h, ncols = form
    nonbasic = (~basic).nonzero()[0]
    nsoft = nonbasic.size
    work = np.concatenate([nonbasic, np.arange(ncols, h.size)])
    mat, rhs = g[work], h[work]
    inv = _inverse(mat, _START_INV_TOL)
    if inv is None:
        return None
    # The positions whose constraint can leave are the first nsoft of work:
    # a pivot puts the basic column that leaves where the nonbasic one was.
    soft = work < ncols
    hide = np.zeros(ncols)  # keeps nonbasic values out of tests
    hide[nonbasic] = np.inf
    g_cols, h_cols = g[:ncols], h[:ncols]
    cost, pivots = c, 0
    while True:
        x = inv.dot(rhs)
        values = h_cols - g_cols.dot(x)
        values += hide
        leave = int(values.argmin())
        y = cost.dot(inv)  # -d: the reduced cost of each position's column, negated
        if values[leave] < -_FEAS_TOL:  # dual pivot
            if cost is c and y[:nsoft].max(initial=0.0) > _COST_TOL:
                # cost shifting: raise every negative reduced cost to 0
                shift = np.zeros(y.size)
                np.maximum(y[:nsoft], 0.0, out=shift[:nsoft])
                cost, y = c - shift.dot(mat), y - shift
            u = g[leave].dot(inv)
            p = _ratio_test(u, -y, soft, work)
            if p < 0:
                return LPResult("infeasible", None, None, pivots)
        elif cost is not c:  # primal feasible: restore the true costs
            cost = c
            continue
        else:  # primal pivot
            step = small = None
            improving = (y[:nsoft] > _COST_TOL).nonzero()[0].tolist()
            for p in sorted(improving, key=work.__getitem__):
                alpha = -(g_cols @ inv[:, p])
                row = _ratio_test(alpha, values, basic)
                if row >= 0:
                    if alpha[row] >= _SMALL_PIVOT:
                        step = row, p
                        break
                    small = small or (row, p)
                elif y[p] > _UNBOUNDED_TOL:
                    return LPResult("unbounded", None, None, pivots)
                # else: cost is float dust; treat the column as non-improving
            step = step or small
            if step is None:
                break
            leave, p = step
            u = g[leave].dot(inv)
            if not u[p] < 0.0:  # u[p] = -alpha[leave] in exact arithmetic
                return None
        if pivots == limit:
            raise RuntimeError("simplex iteration limit exceeded")
        col = inv[:, p] / u[p]
        inv -= col[:, None] * u
        inv[:, p] = col
        enter = work[p]
        basic[enter], basic[leave] = True, False
        hide[enter], hide[leave] = 0.0, np.inf
        work[p], mat[p], rhs[p] = leave, g[leave], h[leave]
        pivots += 1

    if pivots and _off(inv, mat) > _START_INV_TOL:
        inv = _inverse(mat, _FINAL_INV_TOL)
        if inv is None:
            return None
        x = inv.dot(rhs)
    for _ in range(2):
        x += inv.dot(rhs - mat.dot(x))
    x[~basic[: c.size]] = 0.0
    np.maximum(x, 0.0, out=x)
    if not _satisfies(form, x):
        return None
    return LPResult("optimal", x, float(c.dot(x)), pivots)


def _slack_basis(form: _Form) -> tuple[np.ndarray, list[int]] | None:
    """The cold start: (the slack basis's column mask, the equality rows it
    keeps), or None when an equality row reduces to 0 = b with b nonzero.

    Gauss-Jordan elimination with partial pivoting over the equality rows in
    order picks for each the structural column of its largest entry; a row
    whose entries all reduce below _PIVOT_TOL is dropped. Every inequality
    row's slack is basic too.
    """
    c, g, h, ncols = form
    n = c.size
    system = np.hstack([g[ncols:], h[ncols:, None]])
    basic = np.zeros(ncols, dtype=bool)
    basic[n:] = True
    keep = []
    for r, row in enumerate(system):
        col = int(np.abs(row[:n]).argmax())
        if abs(row[col]) <= _PIVOT_TOL:
            if abs(row[-1]) > _FEAS_TOL:
                return None
            continue
        row /= row[col]
        system[r + 1 :] -= system[r + 1 :, col, None] * row
        basic[col] = True
        keep.append(r)
    return basic, keep


def _satisfies(form: _Form, x: np.ndarray) -> bool:
    """Whether x meets the form's inequality and equality rows to within
    _FEAS_TOL, relative to the size of their right-hand sides."""
    n, ncols = form.c.size, form.ncols
    rhs = form.h[n:]
    tol = _FEAS_TOL * (1.0 + np.abs(rhs).max(initial=0.0))
    miss = form.g[n:].dot(x)
    miss -= rhs
    eq = miss[ncols - n :]  # an equality row misses both ways
    np.abs(eq, out=eq)
    return bool(miss.max(initial=0.0) <= tol)


def _solve(form: _Form, basic: np.ndarray | None = None):
    """The one LP routine: (the result, the final basis's column mask).

    The LP is re-optimised from the basis `basic` flags, when given, in at
    most _HINT_PIVOTS pivots per row and column; `basic` is updated in
    place. A start whose working set is singular, or whose solve ends in
    anything but an optimum or passes that limit, leaves the solve from the
    slack basis (and its pivot count) as without a start. The mask is None
    when the LP is not optimal or a redundant equality row was dropped.
    Raises RuntimeError as solve_lp does.
    """
    if basic is not None:
        try:
            warm = _reoptimise(form, basic, _HINT_PIVOTS * form.h.size)
        except RuntimeError:  # the pivot limit
            warm = None
        if warm is not None and warm.status == "optimal":
            return warm, basic
    cold = _slack_basis(form)
    if cold is None:
        return LPResult("infeasible", None, None, 0), None
    basic, keep = cold
    dropped = len(keep) < form.h.size - form.ncols
    if dropped:
        rows = list(range(form.ncols)) + [form.ncols + r for r in keep]
        form = form._replace(g=form.g[rows], h=form.h[rows])
    res = _reoptimise(form, basic, _MAX_ITER)
    if res is None:
        raise RuntimeError(
            "simplex round-off: the working set's inverse lost its accuracy, "
            "or the solution violates its constraints"
        )
    return res, (None if dropped or res.status != "optimal" else basic)


def _hint(start, form: _Form) -> np.ndarray | None:
    """The column mask of the starting basis `start`, or None when it has
    the wrong length or a repeated or out-of-range column."""
    cols = sorted(set(start))
    if len(start) != form.h.size - form.c.size or len(cols) != len(start):
        return None
    if cols and not (0 <= cols[0] and cols[-1] < form.ncols):
        return None
    basic = np.zeros(form.ncols, dtype=bool)
    basic[cols] = True
    return basic


def solve_lp(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
    *,
    basis=None,
) -> LPResult:
    """Dense simplex from a starting basis.

    Args:
        c: objective coefficients, length n (minimized).
        a_ub, b_ub: inequality rows A_ub @ x <= b_ub.
        a_eq, b_eq: equality rows A_eq @ x = b_eq.
        basis: optional starting basis, the `basis` of an earlier LPResult
            of an LP with the same shape. When it is optimal for this LP it
            is returned with 0 pivots; when it is any other nonsingular
            basis, the LP is re-optimised from it by dual and primal
            pivots. An unusable hint, or a solve from it that ends in
            anything but an optimum or takes more than _HINT_PIVOTS pivots
            per row and column, leaves the solve from the slack basis (and
            its pivot count) as without a hint.

    Returns:
        LPResult with status "optimal" (x, objective and basis set),
        "infeasible", or "unbounded", and the number of pivots it took.

    Raises:
        ValueError: when c is empty, an array has a non-finite entry, the
            constraint shapes do not match c, or basis holds anything but
            column indices.
        RuntimeError: when round-off defeats the solve from the slack basis
            (its working set is singular to round-off, a pivot entry read
            off the leaving row has the wrong sign because the updated
            inverse lost its accuracy, or the solution read off its final
            working set misses the original rows) or takes more than
            _MAX_ITER pivots.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or not c.size:
        raise ValueError(f"c must be a nonempty vector, got shape {c.shape}")
    n = c.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    if a_ub.shape != (b_ub.size, n) or a_eq.shape != (b_eq.size, n):
        raise ValueError("constraint shapes do not match the objective length")
    arrays = {"c": c, "a_ub": a_ub, "b_ub": b_ub, "a_eq": a_eq, "b_eq": b_eq}
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            raise ValueError(f"{name} has a non-finite entry")
    if basis is not None:
        try:
            basis = [operator.index(k) for k in basis]
        except TypeError:
            raise ValueError(f"basis must hold column indices, got {basis!r}") from None
    form = _form(c, a_ub, b_ub, a_eq, b_eq)
    res, basic = _solve(form, None if basis is None else _hint(basis, form))
    if basic is None:
        return res
    return LPResult(res.status, res.x, res.objective, res.pivots,
                    tuple(basic.nonzero()[0].tolist()))
