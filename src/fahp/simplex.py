"""Small dense simplex used by the feasibility subproblems.

Minimizes c @ x subject to A_ub @ x <= b_ub, A_eq @ x = b_eq, x >= 0, in
the active-set form of the simplex method (Gill, Murray and Wright,
"Numerical Linear Algebra and Optimization", 1991). Each column of the
standard form is read as a constraint: structural column j as -x_j <= 0,
the slack of inequality row r as that row. A basis's nonbasic columns are
its active constraints, and with every equality row they make the working
set: one n x n matrix B (n + 2 columns for the solver's max-slack LPs)
whose inverse comes once from numpy's LAPACK-backed `inv`. B^-1 gives the
vertex x = B^-1 b_W, the slack h - G x of every constraint (the basic
values) and the reduced costs d = -c B^-1 of the nonbasic columns, which
are the LP's duals. A pivot swaps one row of B for another and updates
B^-1 by one rank-1 (Sherman-Morrison) step.

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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
        prod = inv @ mat
        prod.flat[:: len(mat) + 1] -= 1.0
        off = np.abs(prod, out=prod).max(initial=0.0)
    return off if np.isfinite(off) else np.inf


def _inverse(mat: np.ndarray, tol: float) -> np.ndarray | None:
    """Inverse of a small square matrix, or None when it is singular or so
    ill-conditioned that inv @ mat is off the identity by more than tol."""
    try:
        inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(inv).all() or _off(inv, mat) > tol:
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
    when `order` is given.
    """
    candidates = ((entries > _PIVOT_TOL) & allowed).nonzero()[0]
    if candidates.size <= 1:
        return int(candidates[0]) if candidates.size else -1
    sizes = entries[candidates]
    gaps = np.maximum(gaps[candidates], 0.0)
    fits = gaps / sizes <= ((gaps + _HARRIS_DELTA) / sizes).min()
    sizes = np.where(fits, sizes, 0.0)
    top = candidates[sizes == sizes.max()].tolist()
    return top[0] if order is None else min(top, key=order.__getitem__)


def _from_basis(c, a_ub, b_ub, a_eq, b_eq, start, limit=None) -> LPResult | None:
    """Solve the LP from the basis `start` in at most `limit` pivots (by
    default _HINT_PIVOTS per row and column): "optimal", "infeasible" or
    "unbounded", or None when the start is unusable or no solution that
    meets the rows can be read off the final working set. Raises
    RuntimeError past the limit.

    Constraint k is g_k x <= h_k, row k of G = [-I; A_ub; A_eq]: for
    k < n + m_ub the constraint of column k, then the equality rows. `work`
    lists the working set, so B = G[work] and `inv` = B^-1; `basic` flags
    the basic columns. Leaving the constraint at position p of `work` moves
    x by -B^-1 e_p per unit of its slack, so a basic column's entry in the
    entering column is alpha = -G B^-1 e_p, and the entries of the row of
    a leaving column k are -u with u = g_k B^-1.
    """
    n, m_ub = c.size, b_ub.size
    ncols = n + m_ub
    if limit is None:
        limit = _HINT_PIVOTS * (n + m_ub + b_eq.size)
    cols = sorted(set(start))
    if len(start) != m_ub + b_eq.size or len(cols) != len(start):
        return None
    if cols and not (0 <= cols[0] and cols[-1] < ncols):
        return None
    g = np.zeros((ncols + b_eq.size, n))
    g[:n].flat[:: n + 1] = -1.0
    g[n:ncols] = a_ub
    g[ncols:] = a_eq
    h = np.concatenate([np.zeros(n), b_ub, b_eq])
    basic = np.zeros(ncols, dtype=bool)
    basic[cols] = True
    work = np.concatenate([(~basic).nonzero()[0], np.arange(ncols, h.size)])
    mat, rhs = g[work], h[work]
    inv = _inverse(mat, _START_INV_TOL)
    if inv is None:
        return None
    soft = work < ncols  # the positions whose constraint can leave
    hide = np.where(basic, 0.0, np.inf)  # keeps nonbasic values out of tests
    g_cols, h_cols = g[:ncols], h[:ncols]
    cost, pivots = c, 0
    while True:
        x = inv @ rhs
        values = h_cols - g_cols @ x
        values += hide
        leave = int(values.argmin())
        y = cost @ inv  # -d: the reduced cost of each position's column, negated
        if values[leave] < -_FEAS_TOL:  # dual pivot
            if cost is c and (y * soft).max() > _COST_TOL:
                # cost shifting: raise every negative reduced cost to 0
                shift = np.maximum(y, 0.0) * soft
                cost, y = c - shift @ mat, y - shift
            u = g[leave] @ inv
            p = _ratio_test(u, -y, soft, work)
            if p < 0:
                return LPResult("infeasible", None, None, pivots)
        elif cost is not c:  # primal feasible: restore the true costs
            cost = c
            continue
        else:  # primal pivot
            step = small = None
            improving = ((y > _COST_TOL) & soft).nonzero()[0].tolist()
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
            u = g[leave] @ inv
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
        x = inv @ rhs
    for _ in range(2):
        x += inv @ (rhs - mat @ x)
    x[~basic[:n]] = 0.0
    np.maximum(x, 0.0, out=x)
    if not _satisfies(a_ub, b_ub, a_eq, b_eq, x):
        return None
    basis = tuple(basic.nonzero()[0].tolist())
    return LPResult("optimal", x, float(c @ x), pivots, basis)


def _slack_basis(a_eq: np.ndarray, b_eq: np.ndarray, m_ub: int):
    """The cold start: (the slack basis, the equality rows it keeps), or
    None when an equality row reduces to 0 = b with b nonzero.

    Gauss-Jordan elimination with partial pivoting over the equality rows in
    order picks for each the structural column of its largest entry; a row
    whose entries all reduce below _PIVOT_TOL is dropped. Every inequality
    row's slack is basic too.
    """
    n = a_eq.shape[1]
    system = np.hstack([a_eq, b_eq[:, None]])
    struct, keep = [], []
    for r, row in enumerate(system):
        col = int(np.abs(row[:n]).argmax())
        if abs(row[col]) <= _PIVOT_TOL:
            if abs(row[-1]) > _FEAS_TOL:
                return None
            continue
        row /= row[col]
        system[r + 1 :] -= system[r + 1 :, col, None] * row
        struct.append(col)
        keep.append(r)
    return struct + list(range(n, n + m_ub)), keep


def _satisfies(a_ub, b_ub, a_eq, b_eq, x: np.ndarray) -> bool:
    """Whether x meets the original constraint rows to within _FEAS_TOL,
    relative to the size of the right-hand sides."""
    tol = _FEAS_TOL * (
        1.0 + max(np.abs(b_ub).max(initial=0.0), np.abs(b_eq).max(initial=0.0))
    )
    return bool(
        (a_ub @ x - b_ub).max(initial=0.0) <= tol
        and np.abs(a_eq @ x - b_eq).max(initial=0.0) <= tol
    )


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
        RuntimeError: when round-off defeats the solve from the slack basis
            (its working set is singular to round-off, or the solution read
            off its final working set misses the original rows) or takes
            more than _MAX_ITER pivots.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    if a_ub.shape != (b_ub.size, n) or a_eq.shape != (b_eq.size, n):
        raise ValueError("constraint shapes do not match the objective length")
    if basis is not None:
        try:
            warm = _from_basis(c, a_ub, b_ub, a_eq, b_eq, basis)
        except RuntimeError:  # the pivot limit
            warm = None
        if warm is not None and warm.status == "optimal":
            return warm

    cold = _slack_basis(a_eq, b_eq, b_ub.size)
    if cold is None:
        return LPResult("infeasible", None, None, 0)
    start, keep = cold
    res = _from_basis(c, a_ub, b_ub, a_eq[keep], b_eq[keep], start, _MAX_ITER)
    if res is None:
        raise RuntimeError("simplex round-off: the solution violates its constraints")
    return res if len(keep) == b_eq.size else replace(res, basis=None)
