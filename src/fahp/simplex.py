"""Small dense two-phase simplex used by the feasibility subproblems.

Minimizes c @ x subject to A_ub @ x <= b_ub, A_eq @ x = b_eq, x >= 0.
Phase 1 starts from the slack basis: an inequality row with a nonnegative
right-hand side starts with its own slack basic, and only the equality rows
and the inequality rows whose right-hand side was negative (and got flipped)
get an artificial variable. The leaving row comes from Harris's two-pass
ratio test (Math. Programming 5, 1973): pass 1 bounds the step by the
smallest ratio with every right-hand side relaxed by a small tolerance,
pass 2 takes the largest pivot entry among the rows within that bound, so a
tiny entry on a row that is only at its bound by round-off is not pivoted
on while a larger one fits. Bland's rule picks the entering column only:
the lowest-index improving column, except that a column whose pivot entry
would still be tiny waits until no other column can enter. Neither rule
keeps Bland's proof that degenerate vertices cannot cycle, so the
iteration limit stays as a guard. Each pivot is one numpy rank-1 update
of the tableau.

The phase-2 tableau keeps the artificial columns but never lets them
enter. The starting basis (the slacks and artificials of phase 1) is the
identity in the original rows, so those columns of the tableau hold B^-1
for the current basis B. Each phase-2 solution gets one step of iterative
refinement from them: the basic values move by B^-1 (b - A x), which takes
out most of the round-off the pivots left in x without a LAPACK call.
Round-off that remains is caught after each phase: a phase 1 that ends
"unbounded" or with a positive residual, and a phase-2 solution that misses
the original rows, get their tableau recomputed from the original rows for
the current basis and iterate once more. A solution is reported only once
it meets the original rows.

A caller that solves a run of LPs of the same shape can pass the final
basis of one (`LPResult.basis`) as the starting-basis hint of the next.
The hint is checked without building a tableau: its basic structural
columns and the rows whose slack is nonbasic form a square system, at most
n + 2 columns for the solver's max-slack LPs, inverted by Gauss-Jordan
elimination with partial pivoting (numpy only). The basic values and the
duals read from that inverse certify the basis when every basic value is
at least -_FEAS_TOL, every reduced cost of a nonbasic column is at least
-_COST_TOL and the solution meets the original rows; the LP then returns
with 0 pivots. A hint that fails any check, or is singular, of the wrong
length or out of range, is dropped and the two-phase solve runs as
without it. Sized for problems with tens of rows; this is not a
general-purpose LP library.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# tableau by 1e8 and left a basis that could not be rebuilt.
_SMALL_PIVOT = 1e-5
# A column whose reduced cost is below _COST_TOL but above this is float
# dust from earlier pivots; only a decisively negative cost with no pivot
# row proves an unbounded ray.
_UNBOUNDED_TOL = 1e-7


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    pivots: int  # simplex pivots of both phases
    # basic columns of the final tableau, structural then slack numbering
    # (slack of inequality row r is column n + r); None when not optimal or
    # when phase 1 dropped a redundant row
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


def _iterate(
    tableau: np.ndarray, basis: list[int], max_iter: int, enter: int
) -> tuple[str, int]:
    """Run simplex pivots until optimal or unbounded; return the status and
    the number of pivots taken.

    Only the columns below `enter` may enter the basis. The entering column
    is the lowest-index improving one (Bland's rule) whose pivot entry is at
    least _SMALL_PIVOT; a column with a smaller one enters only when no
    other column can.
    """
    costs = tableau[-1, :enter]
    for pivots in range(max_iter):
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


def _refactor(
    tableau: np.ndarray, basis: list[int], system: np.ndarray, cost: np.ndarray
) -> None:
    """Recompute the tableau for `basis` from the original rows [A | b].

    Pivots accumulate round-off in the tableau. Pivoting the basic columns
    afresh into the original rows, each at the free row where its entry is
    largest, discards it (numpy only: LAPACK's workspace would add a
    megabyte or more to the process). A phase-2 basis may have fewer columns
    than the system has rows; the rows left over are the redundant ones.
    """
    fresh = system.copy()
    free = list(range(len(fresh)))
    rows = []
    for col in basis:
        row = max(free, key=lambda r: abs(fresh[r, col]))
        if abs(fresh[row, col]) <= _PIVOT_TOL:
            raise RuntimeError("simplex round-off: the basis is singular")
        free.remove(row)
        _pivot(fresh, [col] * len(fresh), row, col)  # a throwaway basis list
        rows.append(row)
    tableau[:-1] = fresh[rows]
    _price(tableau, basis, cost)


def _inverse(mat: np.ndarray) -> np.ndarray | None:
    """Inverse of a small square matrix by Gauss-Jordan elimination with
    partial pivoting (numpy only, as in _refactor), or None when no pivot
    left in a column is above _PIVOT_TOL."""
    k = len(mat)
    aug = np.hstack([mat, np.eye(k)])
    rows, spare = [], [0] * k  # pivot rows in column order; a throwaway basis
    for col in range(k):
        column = np.abs(aug[:, col])
        column[rows] = 0.0
        row = int(column.argmax())
        if column[row] <= _PIVOT_TOL:
            return None
        _pivot(aug, spare, row, col)
        rows.append(row)
    # column j of mat was pivoted in at rows[j], so row j of its inverse is
    # row rows[j] of the right half
    return aug[rows, k:]


def _certify(c, a_ub, b_ub, a_eq, b_eq, hint) -> LPResult | None:
    """The optimal solution of the basis `hint`, or None unless the hint is a
    primal and dual feasible basis of this LP.

    The basic structural columns S and the tight rows T (inequality rows
    whose slack is nonbasic, and every equality row) form a square system
    M = A[T, S]; every other basic column is a slack. x_S = M^-1 b_T, refined
    once, and the duals y = c_S M^-1 give the reduced costs c - y A[T] of the
    structural columns and -y of the tight rows' slacks.
    """
    n, m_ub = c.size, b_ub.size
    cols = sorted(set(hint))
    if len(hint) != m_ub + b_eq.size or len(cols) != len(hint):
        return None
    if cols and not (0 <= cols[0] and cols[-1] < n + m_ub):
        return None
    basic = np.zeros(n + m_ub, dtype=bool)
    basic[cols] = True
    struct = basic[:n].nonzero()[0]
    tight = (~basic[n:]).nonzero()[0]
    rows = np.vstack([a_ub[tight], a_eq])
    rhs = np.concatenate([b_ub[tight], b_eq])
    mat = rows[:, struct]
    inv = _inverse(mat)
    if inv is None:
        return None
    xs = inv @ rhs
    xs += inv @ (rhs - mat @ xs)
    y = c[struct] @ inv
    if (
        xs.min(initial=0.0) < -_FEAS_TOL
        or (c - y @ rows).min(initial=0.0) < -_COST_TOL
        or y[: len(tight)].max(initial=0.0) > _COST_TOL
    ):
        return None
    x = np.zeros(n)
    x[struct] = np.clip(xs, 0.0, None)
    if not _satisfies(a_ub, b_ub, a_eq, b_eq, x):
        return None
    return LPResult("optimal", x, float(c @ x), 0, tuple(hint))


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
    max_iter: int = 10_000,
    *,
    basis=None,
) -> LPResult:
    """Two-phase dense simplex.

    Args:
        c: objective coefficients, length n (minimized).
        a_ub, b_ub: inequality rows A_ub @ x <= b_ub.
        a_eq, b_eq: equality rows A_eq @ x = b_eq.
        basis: optional starting-basis hint, the `basis` of an earlier
            LPResult of an LP with the same shape. When it is optimal for
            this LP it is returned with 0 pivots; otherwise it is ignored.

    Returns:
        LPResult with status "optimal" (x, objective and basis set),
        "infeasible", or "unbounded", and the number of pivots it took.
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
        warm = _certify(c, a_ub, b_ub, a_eq, b_eq, basis)
        if warm is not None:
            return warm

    m_ub, m_eq = b_ub.size, b_eq.size
    m = m_ub + m_eq
    ncols = n + m_ub  # structural + slack columns
    rows = np.zeros((m, ncols))
    rhs = np.zeros(m)
    rows[:m_ub, :n] = a_ub
    rows[:m_ub, n:] = np.eye(m_ub)
    rhs[:m_ub] = b_ub
    rows[m_ub:, :n] = a_eq
    rhs[m_ub:] = b_eq
    flip = rhs < 0
    rows[flip] *= -1.0
    rhs[flip] *= -1.0

    # phase 1: an inequality row that kept its sign starts with its own slack
    # basic; every other row gets an artificial, and their sum is minimized
    art_rows = flip[:m_ub].nonzero()[0].tolist() + list(range(m_ub, m))
    system = np.hstack([rows, np.eye(m)[:, art_rows], rhs[:, None]])
    tableau = np.vstack([system, np.zeros(system.shape[1])])
    init = list(range(n, n + m))  # row r's slack is column n + r
    for j, r in enumerate(art_rows):
        init[r] = ncols + j
    basis = init.copy()
    cost = np.repeat([0.0, 1.0, 0.0], [ncols, len(art_rows), 1])
    _price(tableau, basis, cost)
    all_cols = ncols + len(art_rows)
    status, pivots = _iterate(tableau, basis, max_iter, all_cols)
    if status != "optimal" or -tableau[m, -1] > _FEAS_TOL:
        # Phase 1 is bounded below by 0, so "unbounded" can only come from
        # round-off, and a positive residual may too: rebuild and go on.
        _refactor(tableau, basis, system, cost)
        status, more = _iterate(tableau, basis, max_iter, all_cols)
        pivots += more
        if status != "optimal":
            raise RuntimeError(f"phase-1 simplex ended with status {status!r}")
    if -tableau[m, -1] > _FEAS_TOL:
        return LPResult("infeasible", None, None, pivots)

    # drive any artificial still basic (at level ~0) out of the basis
    for r in range(m):
        if basis[r] >= ncols:
            piv = next(
                (j for j in range(ncols) if abs(tableau[r, j]) > _PIVOT_TOL), None
            )
            if piv is not None:
                _pivot(tableau, basis, r, piv)
                pivots += 1

    # Drop the redundant rows. The artificial columns stay, never to enter:
    # with those of the slack start they make up the columns `init`, where
    # the system holds the identity and the tableau therefore B^-1.
    keep = [r for r in range(m) if basis[r] < ncols]
    basis = [basis[r] for r in keep]
    tableau = tableau[keep + [m]]
    cost = np.zeros(system.shape[1])
    cost[:n] = c
    _price(tableau, basis, cost)
    for attempt in range(2):
        if attempt:  # the solution misses its rows: rebuild and go on
            _refactor(tableau, basis, system, cost)
        status, more = _iterate(tableau, basis, max_iter, ncols)
        pivots += more
        if status == "unbounded":
            return LPResult("unbounded", None, None, pivots)
        # one step of iterative refinement: x_B += B^-1 (b - A x)
        x = np.zeros(ncols)
        x[basis] = tableau[:-1, -1]
        x[basis] += tableau[:-1, init] @ (rhs - system[:, :ncols] @ x)
        x = np.clip(x[:n], 0.0, None)
        if _satisfies(a_ub, b_ub, a_eq, b_eq, x):
            final = tuple(basis) if len(basis) == m else None
            return LPResult("optimal", x, float(c @ x), pivots, final)
    raise RuntimeError("simplex round-off: the solution violates its constraints")
