"""Small dense simplex used by the feasibility subproblems.

Minimizes c @ x subject to A_ub @ x <= b_ub, A_eq @ x = b_eq, x >= 0.
Every LP is solved from a starting basis by one routine, _from_basis. The
basis's basic structural columns and the rows whose slack is nonbasic form
a square system, at most n + 2 columns for the solver's max-slack LPs,
inverted once by numpy's LAPACK-backed `inv`. A basis that the inverse
certifies optimal is returned with 0 pivots. From any other, the same
inverse gives the tableau; the dual simplex (Lemke 1954) reaches primal
feasibility, with every negative reduced cost first raised to 0 (cost
shifting, as in Koberstein's "The dual simplex method", 2005), and the
primal simplex finishes. The tableau's values carry the round-off of the
pivots, so the optimal x is read off the final basis's square system, with
two steps of iterative refinement, and is reported only once it meets the
original rows.

The leaving row of a primal pivot comes from Harris's two-pass ratio test
(Math. Programming 5, 1973): pass 1 bounds the step by the smallest ratio
with every right-hand side relaxed by a small tolerance, pass 2 takes the
largest pivot entry among the rows within that bound, so a tiny entry on a
row that is only at its bound by round-off is not pivoted on while a larger
one fits. Bland's rule picks the entering column only: the lowest-index
improving column, except that a column whose pivot entry would still be
tiny waits until no other column can enter. Neither rule keeps Bland's
proof that degenerate vertices cannot cycle, so a limit of _MAX_ITER pivots
stays as a guard. Each pivot is one numpy rank-1 update of the tableau.

Without a hint the start is the slack basis: every inequality row's slack,
and one structural column per equality row, picked by Gauss-Jordan
elimination with partial pivoting. An equality row that reduces to 0 = 0 is
dropped as redundant; one that reduces to 0 = b with b nonzero makes the LP
infeasible. A caller that solves a run of LPs of the same shape can pass
the final basis of one (`LPResult.basis`) as the starting basis of the
next. A hint of the wrong length, with a repeated or out-of-range column or
with a singular system, or whose solve ends in anything but an optimum, is
dropped for the slack basis, whose verdict is final. Sized for problems
with tens of rows; this is not a general-purpose LP library.
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
# A pivot on an entry this small scales its row by the reciprocal. Taken on
# a row that sat at its bound only by round-off, such pivots grew the
# tableau by 1e8 and left a basis that was singular to round-off.
_SMALL_PIVOT = 1e-5
# A column whose reduced cost is below _COST_TOL but above this is float
# dust from earlier pivots; only a decisively negative cost with no pivot
# row proves an unbounded ray.
_UNBOUNDED_TOL = 1e-7
# Pivots per call of _iterate or _dual_iterate before it gives up.
_MAX_ITER = 10_000
# How far inv @ M may be off the identity: for a starting basis, whose
# inverse builds the tableau, and for the final basis, whose inverse only
# refines a solution that must then meet the rows.
_START_INV_TOL = 1e-8
_FINAL_INV_TOL = 1e-3


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    pivots: int  # simplex pivots of the dual and primal simplex
    # basic columns of the final tableau, structural then slack numbering
    # (slack of inequality row r is column n + r); None when not optimal or
    # when a redundant equality row was dropped
    basis: tuple[int, ...] | None = None


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    # One rank-1 update. Each entry gets a - f * p, as it did in a loop over
    # the rows; a row with f = 0 keeps its values.
    tableau -= factors[:, None] * tableau[row]
    basis[row] = col


def _ratio_row(tableau: np.ndarray, basis: list[int], col: int) -> int:
    """Leaving row for the entering column, or -1 when no entry is positive.

    Harris's two-pass test. Pass 1 clips each right-hand side at 0 and bounds
    the step by min((rhs + delta) / a) over the entries a > _PIVOT_TOL. Pass
    2 takes, among the rows whose ratio rhs / a is within that bound, the one
    with the largest entry a, ties going to the lowest basic variable index.
    """
    column = tableau[:-1, col]
    candidates = (column > _PIVOT_TOL).nonzero()[0]
    if candidates.size <= 1:
        return int(candidates[0]) if candidates.size else -1
    entries = column[candidates]
    rhs = np.maximum(tableau[candidates, -1], 0.0)
    bound = ((rhs + _HARRIS_DELTA) / entries).min()
    fits = rhs / entries <= bound
    rows = candidates[fits]
    if rows.size == 1:
        return int(rows[0])
    entries = entries[fits]
    top = rows[entries == entries.max()].tolist()
    return top[0] if len(top) == 1 else min(top, key=basis.__getitem__)


def _iterate(tableau: np.ndarray, basis: list[int]) -> tuple[str, int]:
    """Run simplex pivots until optimal or unbounded; return the status and
    the number of pivots taken.

    The entering column is the lowest-index improving one (Bland's rule)
    whose pivot entry is at least _SMALL_PIVOT; a column with a smaller one
    enters only when no other column can.
    """
    costs = tableau[-1, :-1]
    for pivots in range(_MAX_ITER):
        small = None
        for j in (costs < -_COST_TOL).nonzero()[0].tolist():
            leave = _ratio_row(tableau, basis, j)
            if leave >= 0:
                if tableau[leave, j] >= _SMALL_PIVOT:
                    _pivot(tableau, basis, leave, j)
                    break
                if small is None:
                    small = leave, j
            elif costs[j] < -_UNBOUNDED_TOL:
                return "unbounded", pivots
            # else: cost is float dust; treat the column as non-improving
        else:
            if small is None:
                return "optimal", pivots
            _pivot(tableau, basis, *small)
    raise RuntimeError("simplex iteration limit exceeded")


def _price(tableau: np.ndarray, basis: list[int], cost: np.ndarray) -> None:
    """Set the reduced-cost row for `basis`, from the column costs `cost`
    (whose last entry, for the right-hand side, is 0)."""
    tableau[-1] = cost - cost[basis] @ tableau[:-1]


def _inverse(mat: np.ndarray, tol: float) -> np.ndarray | None:
    """Inverse of a small square matrix, or None when it is singular or so
    ill-conditioned that inv @ mat is off the identity by more than tol."""
    try:
        inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(inv).all():
        return None
    with np.errstate(all="ignore"):  # an overflow fails the check below
        off = np.abs(inv @ mat - np.eye(len(mat))).max(initial=0.0)
    return inv if off <= tol else None


def _dual_iterate(tableau: np.ndarray, basis: list[int]) -> tuple[str, int]:
    """Run dual simplex pivots until every basic value is at least
    -_FEAS_TOL ("feasible") or a row proves the LP infeasible ("infeasible");
    return the status and the number of pivots taken.

    The leaving row holds the most negative basic value. The entering column,
    among those whose entry a in that row is below -_PIVOT_TOL, comes from a
    two-pass ratio test like _ratio_row's: pass 1 bounds the step by
    min((d + delta) / |a|) over the reduced costs d clipped at 0, pass 2
    takes the largest |a| among the columns within that bound, ties going to
    the lowest index.
    """
    costs = tableau[-1, :-1]
    for pivots in range(_MAX_ITER):
        values = tableau[:-1, -1]
        row = int(values.argmin())
        if values[row] >= -_FEAS_TOL:
            return "feasible", pivots
        entries = tableau[row, :-1]
        candidates = (entries < -_PIVOT_TOL).nonzero()[0]
        if not candidates.size:
            return "infeasible", pivots
        sizes = -entries[candidates]
        gaps = np.maximum(costs[candidates], 0.0)
        fits = gaps / sizes <= ((gaps + _HARRIS_DELTA) / sizes).min()
        _pivot(tableau, basis, row, int(candidates[fits][sizes[fits].argmax()]))
    raise RuntimeError("simplex iteration limit exceeded")


def _square(a_ub, b_ub, a_eq, b_eq, basic: np.ndarray, tol: float):
    """The square system of the basis whose columns are flagged in `basic`:
    (the basic structural columns S, the tight rows T, the rows A[T], b_T,
    M = A[T, S] and M^-1), or None when M^-1 is off by more than tol.

    The tight rows are the inequality rows whose slack is nonbasic and every
    equality row; every basic column outside S is a slack.
    """
    n = a_ub.shape[1]
    struct = basic[:n].nonzero()[0]
    tight = (~basic[n:]).nonzero()[0]
    rows = np.vstack([a_ub[tight], a_eq])
    rhs = np.concatenate([b_ub[tight], b_eq])
    mat = rows[:, struct]
    inv = _inverse(mat, tol)
    return None if inv is None else (struct, tight, rows, rhs, mat, inv)


def _solution(n: int, struct, rhs, mat, inv, steps: int):
    """x_S = M^-1 b_T with `steps` steps of iterative refinement, as the
    refined basic values and as the full x (those values clipped at 0)."""
    xs = inv @ rhs
    for _ in range(steps):
        xs += inv @ (rhs - mat @ xs)
    x = np.zeros(n)
    x[struct] = np.clip(xs, 0.0, None)
    return xs, x


def _certify(c, a_ub, b_ub, a_eq, b_eq, square) -> np.ndarray | None:
    """The solution of the basis whose square system (from _square) is
    `square` when that basis is optimal, else None.

    x_S = M^-1 b_T, refined once, and the duals y = c_S M^-1 give the
    reduced costs c - y A[T] of the structural columns and -y of the tight
    rows' slacks. The basis is optimal when every x_S and reduced cost is
    above its tolerance and x meets the rows.
    """
    struct, tight, rows, rhs, mat, inv = square
    xs, x = _solution(c.size, struct, rhs, mat, inv, 1)
    y = c[struct] @ inv
    if (
        xs.min(initial=0.0) >= -_FEAS_TOL
        and (c - y @ rows).min(initial=0.0) >= -_COST_TOL
        and y[: len(tight)].max(initial=0.0) <= _COST_TOL
        and _satisfies(a_ub, b_ub, a_eq, b_eq, x)
    ):
        return x
    return None


def _from_basis(c, a_ub, b_ub, a_eq, b_eq, start) -> LPResult | None:
    """Solve the LP from the basis `start`: "optimal", "infeasible" or
    "unbounded", or None when the start is unusable or no solution that
    meets the rows can be read off the final basis.

    A start that _certify finds optimal is returned with 0 pivots. Any other
    nonsingular start gets its tableau from the same inverse: the rows of the
    basic structurals are M^-1 [A_T | I_T | b_T], those of the basic slacks
    [A_N | I_N | b_N] - A[N, S] M^-1 [A_T | I_T | b_T]. From a primal
    feasible basis the primal simplex finishes; from any other the dual
    simplex reaches primal feasibility first, with each negative reduced
    cost raised to 0 (cost shifting) and the true costs restored before the
    primal simplex.
    """
    n, m_ub = c.size, b_ub.size
    m = m_ub + b_eq.size
    cols = sorted(set(start))
    if len(start) != m or len(cols) != m:
        return None
    if cols and not (0 <= cols[0] and cols[-1] < n + m_ub):
        return None
    basic = np.zeros(n + m_ub, dtype=bool)
    basic[cols] = True
    square = _square(a_ub, b_ub, a_eq, b_eq, basic, _START_INV_TOL)
    if square is None:
        return None
    x = _certify(c, a_ub, b_ub, a_eq, b_eq, square)
    if x is not None:
        return LPResult("optimal", x, float(c @ x), 0, tuple(start))
    struct, tight, _, _, _, inv = square

    # the rows [A | slacks | b]; an equality row has no slack and is tight
    ncols = n + m_ub
    system = np.hstack([
        np.vstack([a_ub, a_eq]),
        np.eye(m)[:, :m_ub],
        np.concatenate([b_ub, b_eq])[:, None],
    ])
    loose = basic[n:].nonzero()[0]
    top = inv @ system[np.concatenate([tight, np.arange(m_ub, m)])]
    bottom = system[loose] - a_ub[np.ix_(loose, struct)] @ top
    tableau = np.vstack([top, bottom, np.zeros((1, ncols + 1))])
    basis = struct.tolist() + (n + loose).tolist()
    cost = np.zeros(ncols + 1)
    cost[:n] = c
    _price(tableau, basis, cost)
    pivots = 0
    if tableau[:-1, -1].min(initial=0.0) < -_FEAS_TOL:
        costs = tableau[-1, :ncols]
        shifted = costs.min(initial=0.0) < -_COST_TOL
        if shifted:
            np.maximum(costs, 0.0, out=costs)
        status, pivots = _dual_iterate(tableau, basis)
        if status == "infeasible":
            return LPResult("infeasible", None, None, pivots)
        if shifted:
            _price(tableau, basis, cost)
    status, more = _iterate(tableau, basis)
    pivots += more
    if status == "unbounded":
        return LPResult("unbounded", None, None, pivots)
    basic[:] = False
    basic[basis] = True
    square = _square(a_ub, b_ub, a_eq, b_eq, basic, _FINAL_INV_TOL)
    if square is None:
        return None
    struct, _, _, rhs, mat, inv = square
    x = _solution(n, struct, rhs, mat, inv, 2)[1]
    if not _satisfies(a_ub, b_ub, a_eq, b_eq, x):
        return None
    return LPResult("optimal", x, float(c @ x), pivots, tuple(basis))


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
            basis, the LP is re-optimised from it by the dual and primal
            simplex. An unusable hint, or a solve from it that ends in
            anything but an optimum, leaves the solve from the slack basis
            (and its pivot count) as without a hint.

    Returns:
        LPResult with status "optimal" (x, objective and basis set),
        "infeasible", or "unbounded", and the number of pivots it took.

    Raises:
        RuntimeError: when round-off defeats the solve from the slack basis
            (its system is singular to round-off, or the solution read off
            its final basis misses the original rows) or the dual or primal
            simplex takes more than _MAX_ITER pivots.
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
        except RuntimeError:  # the iteration limit
            warm = None
        if warm is not None and warm.status == "optimal":
            return warm

    cold = _slack_basis(a_eq, b_eq, b_ub.size)
    if cold is None:
        return LPResult("infeasible", None, None, 0)
    start, keep = cold
    res = _from_basis(c, a_ub, b_ub, a_eq[keep], b_eq[keep], start)
    if res is None:
        raise RuntimeError("simplex round-off: the solution violates its constraints")
    return res if len(keep) == b_eq.size else replace(res, basis=None)
