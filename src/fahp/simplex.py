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
out most of the round-off the pivots left in x. Round-off that remains is
caught after each phase: a phase 1 that ends "unbounded" or with a
positive residual, and a phase-2 solution that misses the original rows,
get their tableau recomputed from the original rows for the current basis
and iterate once more. A solution is reported only once it meets the
original rows.

A caller that solves a run of LPs of the same shape can pass the final
basis of one (`LPResult.basis`) as the starting-basis hint of the next.
Its basic structural columns and the rows whose slack is nonbasic form a
square system, at most n + 2 columns for the solver's max-slack LPs,
inverted once by numpy's LAPACK-backed `inv` and rejected when that
inverse is not finite or not accurate to 1e-8. The basic values and the
duals read from it certify the basis when every basic value is at least
-_FEAS_TOL, every reduced cost of a nonbasic column is at least -_COST_TOL
and the solution meets the original rows; the LP then returns with 0
pivots. Otherwise the same inverse gives the hinted basis's phase-2
tableau, and the LP is re-optimised from there: by the primal simplex when
the basis is primal feasible; by the dual simplex (Lemke 1954) and then
the primal one when it is not, with every negative reduced cost first
raised to 0 (cost shifting, as in Koberstein's "The dual simplex method",
2005) when it is dual infeasible too. A hint of the wrong length, with a
repeated or out-of-range column, or with a singular system runs the cold
two-phase solve, as does a re-optimisation that ends unbounded, proves
the LP infeasible, reaches the iteration limit or misses the original
rows. Sized for problems with tens of rows; this is not a general-purpose
LP library.
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
    largest, discards it. A phase-2 basis may have fewer columns than the
    system has rows; the rows left over are the redundant ones.
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
    """Inverse of a small square matrix, or None when it is singular or so
    ill-conditioned that inv @ mat is off the identity by more than 1e-8."""
    try:
        inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(inv).all():
        return None
    with np.errstate(all="ignore"):  # an overflow fails the check below
        off = np.abs(inv @ mat - np.eye(len(mat))).max(initial=0.0)
    return inv if off <= 1e-8 else None


def _dual_iterate(
    tableau: np.ndarray, basis: list[int], max_iter: int, enter: int
) -> tuple[str, int]:
    """Run dual simplex pivots until every basic value is at least
    -_FEAS_TOL ("feasible") or a row proves the LP infeasible ("infeasible");
    return the status and the number of pivots taken.

    The leaving row holds the most negative basic value. The entering column,
    among those below `enter` whose entry a in that row is below
    -_PIVOT_TOL, comes from a two-pass ratio test like _ratio_row's: pass 1
    bounds the step by min((d + delta) / |a|) over the reduced costs d
    clipped at 0, pass 2 takes the largest |a| among the columns within that
    bound, ties going to the lowest index.
    """
    costs = tableau[-1, :enter]
    for pivots in range(max_iter):
        values = tableau[:-1, -1]
        row = int(values.argmin())
        if values[row] >= -_FEAS_TOL:
            return "feasible", pivots
        entries = tableau[row, :enter]
        candidates = (entries < -_PIVOT_TOL).nonzero()[0]
        if not candidates.size:
            return "infeasible", pivots
        sizes = -entries[candidates]
        gaps = np.maximum(costs[candidates], 0.0)
        fits = gaps / sizes <= ((gaps + _HARRIS_DELTA) / sizes).min()
        _pivot(tableau, basis, row, int(candidates[fits][sizes[fits].argmax()]))
    raise RuntimeError("simplex iteration limit exceeded")


def _certify(c, a_ub, b_ub, a_eq, b_eq, basic: np.ndarray):
    """Solve the LP's basis whose columns are flagged in `basic` from its
    square system: (the basic structural columns S, the tight rows T, M^-1,
    and the basis's solution x when the basis is optimal, else None), or
    None when M is singular.

    The tight rows are the inequality rows whose slack is nonbasic and every
    equality row; M = A[T, S], and every other basic column is a slack.
    x_S = M^-1 b_T, refined once, and the duals y = c_S M^-1 give the
    reduced costs c - y A[T] of the structural columns and -y of the tight
    rows' slacks. The basis is optimal when every x_S and reduced cost is
    above its tolerance and x meets the rows.
    """
    n = c.size
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
        xs.min(initial=0.0) >= -_FEAS_TOL
        and (c - y @ rows).min(initial=0.0) >= -_COST_TOL
        and y[: len(tight)].max(initial=0.0) <= _COST_TOL
    ):
        x = np.zeros(n)
        x[struct] = np.clip(xs, 0.0, None)
        if _satisfies(a_ub, b_ub, a_eq, b_eq, x):
            return struct, tight, inv, x
    return struct, tight, inv, None


def _warm(c, a_ub, b_ub, a_eq, b_eq, hint, max_iter: int) -> LPResult | None:
    """The optimal solution reached from the basis `hint`, or None when the
    hint is unusable or its re-optimisation fails.

    A hint that _certify finds optimal is returned with 0 pivots. Any other
    nonsingular hint gets its tableau from the same inverse: the rows of the
    basic structurals are M^-1 [A_T | I_T | b_T], those of the basic slacks
    [A_N | I_N | b_N] - A[N, S] M^-1 [A_T | I_T | b_T]. From a primal
    feasible basis the primal simplex finishes; from a dual feasible one the
    dual simplex reaches primal feasibility first. When the basis is
    neither, each negative reduced cost is raised to 0 for the dual simplex
    (cost shifting), and the true costs are restored before the primal
    simplex. The solution is read off the final basis by _certify, as a
    hint's is: the tableau's values carry the round-off of the pivots.
    """
    n, m_ub = c.size, b_ub.size
    m = m_ub + b_eq.size
    cols = sorted(set(hint))
    if len(hint) != m or len(cols) != m:
        return None
    if cols and not (0 <= cols[0] and cols[-1] < n + m_ub):
        return None
    basic = np.zeros(n + m_ub, dtype=bool)
    basic[cols] = True
    found = _certify(c, a_ub, b_ub, a_eq, b_eq, basic)
    if found is None:
        return None
    struct, tight, inv, x = found
    if x is not None:
        return LPResult("optimal", x, float(c @ x), 0, tuple(hint))

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
    try:
        if tableau[:-1, -1].min(initial=0.0) < -_FEAS_TOL:
            costs = tableau[-1, :ncols]
            shifted = costs.min(initial=0.0) < -_COST_TOL
            if shifted:
                np.maximum(costs, 0.0, out=costs)
            status, pivots = _dual_iterate(tableau, basis, max_iter, ncols)
            if status != "feasible":
                return None
            if shifted:
                _price(tableau, basis, cost)
        status, more = _iterate(tableau, basis, max_iter, ncols)
    except RuntimeError:  # the iteration limit
        return None
    if status != "optimal":
        return None
    basic[:] = False
    basic[basis] = True
    found = _certify(c, a_ub, b_ub, a_eq, b_eq, basic)
    if found is None or found[3] is None:
        return None
    x = found[3]
    return LPResult("optimal", x, float(c @ x), pivots + more, tuple(basis))


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
            this LP it is returned with 0 pivots; when it is any other
            nonsingular basis, the LP is re-optimised from it by the dual
            and primal simplex. An unusable hint, or a re-optimisation
            that fails, leaves the cold two-phase solve (and its pivot
            count) as without a hint.

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
        warm = _warm(c, a_ub, b_ub, a_eq, b_eq, basis, max_iter)
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
