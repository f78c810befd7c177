"""Preference-programming solver for fuzzy pairwise comparison blocks.

Finds the crisp weight vector whose ratios satisfy every fuzzy judgment to
the highest common membership degree lambda. Each judgment (l, m, u) on the
pair (row, col) has two sides, rising and falling, and each grades the
ratio r = w_row / w_col linearly:

    rising  = (r - l) / (m - l)
    falling = (u - r) / (u - m)

In log weights x = log w, a side holds at level lambda exactly when x_row -
x_col >= log(l + lambda (m - l)) (rising; no bound where that argument is
<= 0) or x_row - x_col <= log(u - lambda (u - m)) (falling). A side with
zero spread (m == l or u == m) is hard: its bound is log l or log u at any
level. Every side is thus a difference constraint, one edge of a graph on
the items, and the sides hold together exactly when that graph has no
negative cycle (Bellman-Ford). Every edge gets shorter as lambda rises, so
lambda* is found by a parametric negative-cycle search (Karp and Orlin,
Discrete Appl. Math. 3, 1981): test a level by Bellman-Ford, warm-started
from the current potentials; on a negative cycle, move the level down to
the root of that cycle's log-weight by safeguarded Newton steps, bracketed
below by the last feasible level; stop when no cycle is negative.

Many weight vectors reach lambda*, so the solver returns the leximin one
(Dubois and Fortemps, EJOR 118, 1999), which is unique. At each stage's
level one all-pairs shortest-path pass finds the items pinned to each other
by zero cycles (D[u][v] + D[v][u] ~ 0); they merge into one node with fixed
offsets, and the sides inside a node drop out, among them every side that
is tight on every optimum of the stage. The next stage raises the level of
the remaining (free) sides. Its search starts from the closed-form level
where the first of them would close a zero cycle with the last stage's
shortest path back, refined to the root of that cycle; the stages stop when
no free side is left. No stage passes level 1, where every
judgment pins its pair, and the judgment graph is connected, so the last
stage leaves one node: the weights are its offsets.

Every block starts from the logarithmic least-squares weights of the
judgments' modes (Crawford and Williams, J. Math. Psych. 29, 1985), one n x
n linear system; consistent modes reach lambda_cap there and are returned
clamped without a search. Otherwise the first search is at level 1, the
start's lambda is the low end of its bracket and its log weights are the
first potentials; where the start misses a hard side its lambda is -inf.
Hard sides conflict when a cycle of them is negative, or when no weights
that meet them all keep the weight floor; a block whose exact hard bounds
conflict only by less than membership's 1e-12 tolerance is searched with
each hard bound loosened by a little less than it. lambda_cap caps the
reported lambda and sets `clamped`, but the stages run on to the leximin
weights whatever the cap.

The weight floor is kept exactly, as a constraint of the search. Among the
points that meet a graph's edges the least one with every log weight >= 0
keeps the smallest weight highest (_deepest), so the floor holds at a level
exactly when that point keeps it, and only that point does where it is met
with equality. When the leximin weights fall below the floor, the stages
run again with that test after each search; at the first stage where it
fails, a bisection on the level finds where the floor binds, and that
point is the result.

A block is read once into one side table (_Block): judgment i's rising
side is side 2i and its falling side 2i + 1, each with its items, sign,
base (l or u) and slope in lambda. Every membership the solver takes
(lambda_at, the start's and the result's lambda) comes from one rule on
that table (_memberships), bit for bit fuzzy.membership, and the search's
edges are written from the same table. The reported lambda is
lambda_at(weights); lambda >= 0 certifies that some weight vector lies
inside every judgment's support, and negative lambda measures how strongly
the judgments contradict each other. The solve path is plain Python: in the
whole package numpy is imported only by feasible_at (an LP through the
package's simplex) and SolveResult.weight_vector.

A grid oracle over the simplex lattice is included as an independent check
on the optimizer. It returns exactly the point that scoring every lattice
point would, but finds it line by line in plain Python (oracle_solve).
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import TYPE_CHECKING, Mapping, NamedTuple

from ._record import record
from .errors import InfeasibleJudgmentsError
from .fuzzy import _CRISP_REL_TOL
from .hierarchy import ComparisonMatrix

if TYPE_CHECKING:
    import numpy as np

# Slack this close to zero still counts as feasible; absorbs LP float noise.
_SLACK_FEAS_TOL = 1e-11
# Weights whose lambda is this close to lambda_cap are returned clamped.
_CLAMP_TOL = 1e-9
# Bellman-Ford relaxes an edge only when it lowers a potential by more than
# this (in log weight), so a cycle counts as negative only below -_RELAX_TOL
# and potentials may miss an edge by at most this. It is a fifth of the
# 1e-12 relative tolerance of membership's hard-side rule, so a hard side
# held to within it still grades inf.
_RELAX_TOL = 2e-13
# The slack a hard side's bound gets in the log ratio where the exact bounds
# close a negative cycle: membership accepts each hard side to 1e-12
# relative, and potentials meet an edge to within _RELAX_TOL, so a hard side
# met within its slack still grades inf.
_HARD_SLACK = math.log1p(_CRISP_REL_TOL) - 2 * _RELAX_TOL
# A cycle's root is settled at a level where the cycle's log-weight lies in
# [0, _SETTLED]: the level is then a hair below the root, so the next search
# does not find the cycle again, and the weights meet every side there.
_SETTLED = 2e-14
# Items whose shortest paths both ways sum to this or less (in log weight)
# are pinned to each other.
_PINNED = 1e-9
# _floor_point bisects a level down to this, relative to max(1, |level|).
_LEVEL_RES = 4.0 * 2.0**-52
# Relative tolerance for hard (zero-spread) judgment sides in the oracle.
_HARD_REL_TOL = 1e-9
# feasible_at refuses levels below this. Its LP's side rows grow with |lam|
# while the sum row stays 1. Over the 600 solves of gates seed 11 and the
# 1,500 contradictory blocks of rng seed 101, at every tenth of a decade
# from -10 to -1e6, it first failed ("simplex round-off") at -1.6e5; the
# bound keeps a factor of ten from that.
FEASIBLE_AT_MIN_LAMBDA = -1e4

#: Documented agreement tolerances between solve_fpp and oracle_solve on
#: matrices whose judgment spreads are wide relative to the grid step.
ORACLE_LAMBDA_TOL = 0.03
ORACLE_WEIGHT_TOL = 0.03
ORACLE_MAX_ITEMS = 4
# Bounds the oracle's time only: it holds one line of the lattice at a time,
# so its memory does not grow with the lattice.
_ORACLE_MAX_POINTS = 20_000_000


@record
class SolverConfig:
    """Membership cap and weight floor for the solver."""

    lambda_cap: float = 1.0
    weight_floor: float = 1e-6

    def __post_init__(self):
        # memberships are capped at 1, so a larger cap never binds; a cap
        # below 0 would report blocks as clamped at a negative lambda
        if not 0.0 <= self.lambda_cap <= 1.0:
            raise ValueError(
                f"lambda_cap must lie between 0 and 1, got {self.lambda_cap}"
            )
        if not (self.weight_floor > 0 and math.isfinite(self.weight_floor)):
            raise ValueError(
                f"weight_floor must be positive and finite, got {self.weight_floor}"
            )


@record
class SolveResult:
    """Weights and diagnostics for one comparison block.

    ``weights`` are the leximin weights of the block, unless its
    least-squares weights already reach lambda_cap: lambda_ is the highest
    level every judgment side can reach with every weight at weight_floor
    or above, and among the weight vectors that reach it, these raise the
    sides that can go higher as far as they go, level by level.
    ``iterations`` counts the negative-cycle searches (Bellman-Ford runs) of
    the solve; it is 0 for a block clamped at its least-squares weights.
    The solver and the oracle leave ``slack`` as None; results documents
    keep the key. The oracle counts its lattice points in ``iterations``.
    """

    weights: dict[str, float]
    lambda_: float
    consistent: bool
    iterations: int
    clamped: bool
    slack: float | None = None

    def weight_vector(self) -> np.ndarray:
        import numpy as np

        return np.array(list(self.weights.values()))


def _check_floor(matrix: ComparisonMatrix, config: SolverConfig) -> None:
    if len(matrix.items) * config.weight_floor >= 1.0:
        raise ValueError(
            f"weight_floor {config.weight_floor} is too large for "
            f"{len(matrix.items)} items"
        )


class _Block(NamedTuple):
    """A comparison block's judgment sides, built once per solve_fpp,
    feasible_at or lambda_at call: the solver's one table of a block.

    Judgment i's rising side is side 2i and its falling side 2i + 1. At
    level lambda side s bounds the ratio r = w[row[s]] / w[col[s]] by
    a = base[s] - sign[s] * lambda * slope[s]: r >= a on the rising side
    (sign -1, base l, slope m - l) and r <= a on the falling one (sign 1,
    base u, slope u - m). A side with zero slope is hard: it bounds the
    ratio whatever lambda. _memberships grades every side from this table
    alone."""

    matrix: ComparisonMatrix
    row: tuple[int, ...]  # item index of each side's row
    col: tuple[int, ...]
    sign: tuple[float, ...]
    base: tuple[float, ...]
    slope: tuple[float, ...]
    hard: tuple[int, ...]  # indices of the hard sides
    m: tuple[float, ...]  # each judgment's mode
    crisp: tuple[int, ...]  # indices of the judgments with l == u


def _block(matrix: ComparisonMatrix) -> _Block:
    """Build the block's side table; the matrix was checked when it was
    built."""
    idx = {item: i for i, item in enumerate(matrix.items)}
    row, col, base, slope, m, crisp = [], [], [], [], [], []
    for i, j in enumerate(matrix.judgments):
        r, c = idx[j.row], idx[j.col]
        lo, mode, hi = float(j.value.l), float(j.value.m), float(j.value.u)
        row += (r, r)
        col += (c, c)
        base += (lo, hi)
        slope += (mode - lo, hi - mode)
        m.append(mode)
        if lo == hi:
            crisp.append(i)
    hard = tuple(s for s, k in enumerate(slope) if k == 0.0)
    sign = (-1.0, 1.0) * len(m)
    return _Block(
        matrix, tuple(row), tuple(col), sign, tuple(base), tuple(slope), hard,
        tuple(m), tuple(crisp),
    )


def _memberships(block: _Block, vec) -> list[float]:
    """fuzzy.membership of each side at the ratio vec[row] / vec[col], bit
    for bit: (r - l) / (m - l) rising and (u - r) / (u - m) falling on a
    soft side; on a hard side inf where r >= l * (1 - tol) (rising) or r <=
    u * (1 + tol) (falling) and -inf elsewhere; and on both sides of a
    crisp judgment 1 or -inf, as r is close to m or not."""
    out = []
    inf = math.inf
    for r, c, lo, rise, hi, fall in zip(
        block.row[::2], block.col[::2], block.base[::2], block.slope[::2],
        block.base[1::2], block.slope[1::2],
    ):
        ratio = vec[r] / vec[c]
        if rise:
            out.append((ratio - lo) / rise)
        else:
            out.append(inf if ratio >= lo * (1 - _CRISP_REL_TOL) else -inf)
        if fall:
            out.append((hi - ratio) / fall)
        else:
            out.append(inf if ratio <= hi * (1 + _CRISP_REL_TOL) else -inf)
    for i in block.crisp:
        ratio = vec[block.row[2 * i]] / vec[block.col[2 * i]]
        hit = math.isclose(ratio, block.m[i], rel_tol=_CRISP_REL_TOL)
        out[2 * i] = out[2 * i + 1] = 1.0 if hit else -inf
    return out


def _lowest_membership(block: _Block, vec) -> float:
    """min(1, the lowest fuzzy.membership any judgment assigns to the ratio
    vec[row] / vec[col]), bit for bit."""
    return float(min(min(_memberships(block, vec)), 1.0))


def _as_vector(matrix: ComparisonMatrix, w) -> list[float]:
    n = len(matrix.items)
    if isinstance(w, Mapping):
        missing = [it for it in matrix.items if it not in w]
        if missing:
            raise ValueError(f"weights missing for items: {', '.join(missing)}")
        vec = [float(w[it]) for it in matrix.items]
    else:
        vec = [float(x) for x in w]
        if len(vec) != n:
            raise ValueError(f"weight vector has {len(vec)} entries, expected {n}")
    if not all(x > 0 for x in vec):
        raise ValueError("weights must be strictly positive")
    if abs(math.fsum(vec) - 1.0) > 1e-6:
        raise ValueError(f"weights must sum to 1, got {math.fsum(vec)!r}")
    return vec


def lambda_at(matrix: ComparisonMatrix, w) -> float:
    """Lowest membership any judgment assigns to the weight vector w.

    Accepts a mapping item -> weight or a sequence aligned with
    matrix.items. This is the objective the solver maximizes; for any
    solved block that is not clamped, lambda_at(matrix, result.weights)
    equals result.lambda_.
    """
    return _lowest_membership(_block(matrix), _as_vector(matrix, w))


def feasible_at(
    matrix: ComparisonMatrix, lam: float, config: SolverConfig | None = None
) -> dict[str, float] | None:
    """A strictly positive weight vector meeting every judgment at level lam,
    or None when that level is unattainable.

    The vector returned is the max-slack one, i.e. the deepest interior
    point of the feasible region at that lambda, from one LP: max t subject
    to (coef + lam * slope) * w_col + sign * w_row + t <= 0 for every side
    (coef l or -u), sum w = 1 and w >= weight_floor, solved by the
    package's simplex. No vector meets a level above 1, full membership.
    Raises ValueError when lam is not finite or is below
    FEASIBLE_AT_MIN_LAMBDA (-1e4), where round-off defeats the LP.
    """
    cfg = config or SolverConfig()
    block = _block(matrix)
    _check_floor(matrix, cfg)
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    if lam < FEASIBLE_AT_MIN_LAMBDA:
        raise ValueError(
            f"lam must be at least {FEASIBLE_AT_MIN_LAMBDA:g}, got {lam:g}"
        )
    if lam > 1.0:
        return None
    from . import simplex

    res, _ = simplex._solve(_feasibility_form(block, lam, cfg))
    if res.status != "optimal":
        raise RuntimeError(f"max-slack subproblem unexpectedly {res.status}")
    tp, tn = res.x[-2:].tolist()
    if tp - tn < -_SLACK_FEAS_TOL:
        return None
    w = res.x[:-2] + cfg.weight_floor
    return dict(zip(matrix.items, (w / w.sum()).tolist()))


def _feasibility_form(block: _Block, lam: float, cfg: SolverConfig):
    """feasible_at's LP in the simplex's form, posed in v = w -
    weight_floor, which leaves the right-hand side -weight_floor * (row
    sum) on each side row, with t = tp - tn split into nonnegatives:
    columns v, then tp and tn."""
    import numpy as np

    from . import simplex

    n, k = len(block.matrix.items), len(block.row)
    sign = np.array(block.sign)
    entry = -sign * np.array(block.base) + np.array(block.slope) * lam
    c = np.zeros(n + 2)
    c[n], c[n + 1] = -1.0, 1.0
    g = np.zeros((n + k + 3, n + 2))
    g[: n + 2].flat[:: n + 3] = -1.0  # v >= 0, tp >= 0, tn >= 0
    g[-1, :n] = 1.0  # the sum row
    sides = g[n + 2 : -1]
    sides[:, n], sides[:, n + 1] = 1.0, -1.0
    at = np.arange(k)
    sides[at, block.row] = sign
    sides[at, block.col] = entry
    h = np.zeros(n + k + 3)
    h[-1] = 1.0 - n * cfg.weight_floor
    h[n + 2 : -1] = (entry + sign) * -cfg.weight_floor
    return simplex._Form(c, g, h, n + k + 2)


class _Edges(NamedTuple):
    """Judgment sides as edges of the graph the search runs on, one list
    entry per edge. Edge i from node tail[i] to node head[i] bounds x[head]
    - x[tail] by its weight sign[i] * log(base[i] + lam * rate[i]) +
    const[i] at level lam: a rising side runs from its row to its col with
    sign -1 and rate m - l, a falling side from its col to its row with
    sign 1 and rate -(u - m); a hard side has rate 0. const holds a hard
    side's slack and the node offsets that contraction adds. A rising
    side's bound drops out where base + lam * rate <= 0, and its weight is
    then inf."""

    tail: list[int]
    head: list[int]
    sign: list[float]
    base: list[float]
    rate: list[float]
    const: list[float]


def _side_edges(block: _Block, sides, slack: float = 0.0) -> _Edges:
    """The edges of the block's sides `sides` over the items, each hard
    side's bound loosened by slack."""
    sides = list(sides)
    row, col, sign, slope = block.row, block.col, block.sign, block.slope
    return _Edges(
        [row[s] if sign[s] < 0 else col[s] for s in sides],
        [col[s] if sign[s] < 0 else row[s] for s in sides],
        [sign[s] for s in sides],
        [block.base[s] for s in sides],
        [-sign[s] * slope[s] for s in sides],
        [0.0 if slope[s] else slack for s in sides],
    )


def _weights(edges: _Edges, lam: float) -> list[float]:
    """Each edge's weight at level lam."""
    log, inf = math.log, math.inf
    return [
        s * log(a) + c if (a := b + lam * q) > 0.0 else inf
        for s, c, b, q in zip(edges.sign, edges.const, edges.base, edges.rate)
    ]


def _negative_cycle(
    tails: list[int], heads: list[int], weights: list[float], pot: list[float]
) -> list[int] | None:
    """The edges of a cycle of weight below -_RELAX_TOL, or None when there
    is none and pot holds potentials that every edge meets to within
    _RELAX_TOL (pot[head] <= pot[tail] + weight + _RELAX_TOL).

    Bellman-Ford from the potentials pot, which it lowers in place. After
    each pass it walks the predecessor edges: a cycle among them is
    negative, by more than _RELAX_TOL, and is returned as found. Without
    one every potential is bounded below, so the passes end."""
    n, tol = len(pot), _RELAX_TOL
    pred = [-1] * n
    edges = list(zip(range(len(tails)), tails, heads, weights))
    for _ in range(n * n + 2):
        changed = False
        for e, u, v, w in edges:
            t = pot[u] + w
            if t < pot[v] - tol:
                pot[v] = t
                pred[v] = e
                changed = True
        if not changed:
            return None
        # the predecessor graph has one edge into each node at most
        seen = [0] * n  # 0 unvisited, 1 on the current walk, 2 done
        for start in range(n):
            v, walk = start, []
            while v >= 0 and not seen[v]:
                seen[v] = 1
                walk.append(v)
                v = tails[pred[v]] if pred[v] >= 0 else -1
            if v >= 0 and seen[v] == 1:
                cycle, u = [], v
                while True:
                    cycle.append(pred[u])
                    u = tails[pred[u]]
                    if u == v:
                        return cycle[::-1]
            for u in walk:
                seen[u] = 2
    raise RuntimeError("Bellman-Ford did not settle")


def _has_conflict(block: _Block, sides, slack: float, floor: float) -> bool:
    """Whether the hard sides `sides`, loosened by slack, close a negative
    cycle, one whose log-weight is below -_RELAX_TOL, or leave no weights
    at the floor or above."""
    n = len(block.matrix.items)
    edges = _side_edges(block, sides, slack)
    weights = _weights(edges, 0.0)
    if _negative_cycle(edges.tail, edges.head, weights, [0.0] * n) is not None:
        return True
    dist = _shortest_paths(n, edges.tail, edges.head, weights)
    return not _keeps_floor(_deepest(dist, range(n), [0.0] * n), floor)


def _hard_slack(block: _Block, floor: float) -> float:
    """The slack of each hard side in the search: 0 where the exact bounds
    hold together above the floor, and _HARD_SLACK where only the loosened
    ones do, so that hard sides which membership's 1e-12 tolerance can meet
    together are not called conflicting. Raises InfeasibleJudgmentsError
    where the loosened bounds conflict too."""
    if not block.hard or not _has_conflict(block, block.hard, 0.0, floor):
        return 0.0
    if _has_conflict(block, block.hard, _HARD_SLACK, floor):
        _raise_conflict(block, _HARD_SLACK, floor)
    return _HARD_SLACK


def _raise_conflict(block: _Block, slack: float, floor: float) -> None:
    """Raise InfeasibleJudgmentsError for the hard sides that cannot all
    hold above the floor, loosened by slack, naming the pairs of an
    irreducible subset of them.

    The subset comes from a deletion filter (Chinneck and Dravnieks, ORSA J.
    Computing 3, 1991) over the hard sides in judgment order: each side is
    dropped when the rest still conflict. The verdicts do not depend on the
    order of the items, so neither do the named pairs.
    """
    matrix, keep = block.matrix, list(block.hard)
    for side in list(keep):
        rest = [k for k in keep if k != side]
        if rest and _has_conflict(block, rest, slack, floor):
            keep = rest
    judged = (matrix.judgments[side // 2] for side in keep)
    conflict = list(dict.fromkeys((j.row, j.col) for j in judged))
    listing = ", ".join(f"({r}, {c})" for r, c in conflict)
    raise InfeasibleJudgmentsError(
        f"matrix {matrix.parent!r}: no weight vector meets the zero-spread "
        f"judgment bounds; conflicting pairs: {listing}",
        pairs=conflict,
    )


def _least_squares_start(
    block: _Block, cfg: SolverConfig
) -> tuple[list[float], float]:
    """The logarithmic least-squares weights of the judgments' modes
    (Crawford and Williams, J. Math. Psych. 29, 1985) and their lambda, which
    is -inf where they miss a hard side.

    x = log w minimizes the sum of (x_row - x_col - log m)^2 over the
    judgments: L x = b, with L the Laplacian of the comparison graph. The
    all-ones gauge makes L + 1 1^T positive definite on a connected graph
    and fixes sum x = 0; Gaussian elimination solves it without pivoting.

    Weights below the floor are mixed with it, w = floor + (1 - n * floor)
    * w.
    """
    n = len(block.matrix.items)
    normal = [[1.0] * n for _ in range(n)]
    rhs = [0.0] * n
    for r, c, mode in zip(block.row[::2], block.col[::2], block.m):
        # 1 - 1 off the diagonal at each judged pair, which occurs once
        normal[r][c] = normal[c][r] = 0.0
        normal[r][r] += 1.0
        normal[c][c] += 1.0
        log_m = math.log(mode)
        rhs[r] += log_m
        rhs[c] -= log_m
    for k in range(n):
        pivot = normal[k]
        for i in range(k + 1, n):
            f = normal[i][k] / pivot[k]
            if f:
                below = normal[i]
                for j in range(k + 1, n):
                    below[j] -= f * pivot[j]
                rhs[i] -= f * rhs[k]
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        pivot = normal[k]
        x[k] = (rhs[k] - sum(pivot[j] * x[j] for j in range(k + 1, n))) / pivot[k]
    w = _normalized(x)
    if min(w) < cfg.weight_floor:
        floor = cfg.weight_floor
        w = [floor + (1.0 - n * floor) * v for v in w]
    return w, _lowest_membership(block, w)


def _normalized(x: list[float]) -> list[float]:
    """exp(x) scaled to sum to 1."""
    top = max(x)
    g = [math.exp(v - top) for v in x]
    total = math.fsum(g)
    return [v / total for v in g]


class _Path(NamedTuple):
    """The leximin search of one block: the log weights, each stage's level
    and the number of negative-cycle searches."""

    x: list[float]
    levels: list[float]
    searches: int


def _root(edges: _Edges, cycle: list[int], lo: float, hi: float) -> float:
    """A level in [lo, hi] where the cycle's weight lies in [0, _SETTLED],
    or the low end of its bracket once that has closed, given that the
    weight is not positive at hi and not negative at lo.

    The weight falls as the level rises. Newton steps from hi; a step that
    leaves the bracket is replaced by its midpoint, and one that cannot
    move below a negative point steps down one ulp. A rising side whose
    bound reaches 0 drops out of the graph, so the cycle cannot be negative
    at or below that level, which raises the bracket's low end."""
    sign, base, rate, const = edges.sign, edges.base, edges.rate, edges.const
    a, b = lo, hi
    for e in cycle:
        if rate[e] > 0.0:
            a = max(a, -base[e] / rate[e])
    x = hi
    for _ in range(200):
        value, slope = 0.0, 0.0
        for e in cycle:
            arg = base[e] + x * rate[e]
            if arg <= 0.0:
                value = math.inf
                break
            value += sign[e] * math.log(arg) + const[e]
            slope += sign[e] * rate[e] / arg
        if value >= 0.0:
            if value <= _SETTLED:
                return x
            a = x
        else:
            b = x
        step = x - value / slope if math.isfinite(value) else math.nan
        if step >= b:
            step = math.nextafter(b, -math.inf)
        elif not step > a:
            step = 0.5 * (a + b) if a > -math.inf else b - max(1.0, abs(b))
        if step <= a:
            break
        x = step
    if a == -math.inf:
        raise RuntimeError("the cycle's root search did not settle")
    return a


def _shortest_paths(size: int, tails, heads, weights) -> list[list[float]]:
    """All-pairs shortest paths over `size` nodes (Floyd-Warshall)."""
    inf = math.inf
    dist = [[inf] * size for _ in range(size)]
    for i in range(size):
        dist[i][i] = 0.0
    for u, v, w in zip(tails, heads, weights):
        if w < dist[u][v]:
            dist[u][v] = w
    for via in range(size):
        through = dist[via]
        for d in dist:
            first = d[via]
            if first < inf:
                for j, y in enumerate(through):
                    if first + y < d[j]:
                        d[j] = first + y
    return dist


def _deepest(dist: list[list[float]], node, off) -> list[float]:
    """The log weights x of the items that keep the smallest weight highest
    among the points that meet the graph's edges, given its shortest paths
    dist, where x[i] = X[node[i]] + off[i].

    The smallest weight of x is 1 / sum exp(x - min x), which only grows as
    any x[i] above the lowest falls, so the best x is the least one with
    every x[i] >= 0 (a difference system's solutions have a least element):
    X[g] = max over nodes h of -low[h] - dist[g][h], with low[h] the lowest
    offset in node h. Its lowest entry is 0, and it is the only point of
    the graph whose smallest weight is that high."""
    inf = math.inf
    low = [inf] * len(dist)
    for g, o in zip(node, off):
        low[g] = min(low[g], o)
    top = [max(-b - d for b, d in zip(low, row) if d < inf) for row in dist]
    return [top[g] + o for g, o in zip(node, off)]


def _keeps_floor(x: list[float], floor: float) -> bool:
    """Whether the weights of log weights x are all at the floor or above."""
    return min(_normalized(x)) >= floor


def _floor_point(
    edges: _Edges, node: list[int], off: list[float], floor: float, lo: float,
    hi: float,
) -> tuple[float, list[float]]:
    """The highest level below hi, to float resolution, at which the
    graph's deepest point keeps the floor, and that point's log weights,
    given that it does not keep the floor at hi. Bisection from lo, or,
    where the floor fails there too (or lo is -inf), from a level that
    steps down from hi in doubling steps until the floor holds: the deepest
    point's smallest weight falls as the level rises, since every edge gets
    shorter."""
    size = max(node) + 1

    def deepest(level):
        weights = _weights(edges, level)
        dist = _shortest_paths(size, edges.tail, edges.head, weights)
        return _deepest(dist, node, off)

    x = deepest(lo) if lo > -math.inf else None
    step = max(1.0, abs(hi))
    while x is None or not _keeps_floor(x, floor):
        if step > 1e300:
            raise RuntimeError("the weight floor holds at no level")
        lo = hi - step
        x = deepest(lo)
        step *= 2.0
    while hi - lo > _LEVEL_RES * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        point = deepest(mid)
        if _keeps_floor(point, floor):
            lo, x = mid, point
        else:
            hi = mid
    return lo, x


def _first_closing(
    edges: _Edges, dist: list[list[float]]
) -> tuple[float, int]:
    """The lowest level at which a free edge u -> v would close a zero cycle
    with the path from v to u in dist, and that edge; (1.0, -1) when no
    free edge has a path back."""
    best, at, inf = 1.0, -1, math.inf
    for i, (q, u, v, s, c, b) in enumerate(
        zip(edges.rate, edges.tail, edges.head, edges.sign, edges.const, edges.base)
    ):
        if q and dist[v][u] < inf:
            # sign * log(arg) + const = -dist[v][u]
            level = (math.exp(-s * (c + dist[v][u])) - b) / q
            if level < best:
                best, at = level, i
    return best, at


def _next_level(
    edges: _Edges, weights: list[float], dist: list[list[float]], lam: float
) -> float:
    """An upper bound at most 1 on the level the free edges can reach
    together, from the shortest paths dist at level lam, where the graph
    has no zero cycle between distinct nodes.

    Each free edge u -> v would close a zero cycle with the path from v to
    u by the level where its weight reaches -dist[v][u]; the edges of that
    path only get shorter as the level rises, so the lowest such level
    bounds the next one. The cycle of the lowest edge and its path is then
    solved for its own root, a closer bound."""
    best, at = _first_closing(edges, dist)
    if at < 0:
        return 1.0
    best = max(best, lam)
    # walk the path back from the edge's head to its tail
    out = [[] for _ in dist]
    for i, u in enumerate(edges.tail):
        out[u].append(i)
    cycle, node, goal = [at], edges.head[at], edges.tail[at]
    while node != goal and len(cycle) <= len(dist):
        step = min(out[node], key=lambda i: weights[i] + dist[edges.head[i]][goal])
        cycle.append(step)
        node = edges.head[step]
    if node != goal:
        return best
    return _root(edges, cycle, lam, best)


def _leximin(
    block: _Block, pot: list[float], lo: float, slack: float = 0.0,
    floor: float | None = None,
) -> _Path:
    """The leximin log weights of the block whose weights keep the floor,
    when one is given, from potentials pot that meet every side at level lo
    (lo = -inf: they miss a hard side), each hard side loosened by slack."""
    n = len(pot)
    edges = _side_edges(block, range(len(block.row)), slack)
    node = list(range(n))  # each item's node; x[i] = X[node[i]] + off[i]
    off = [0.0] * n
    levels, searches, hi = [], 0, 1.0
    while True:
        lam = hi
        while True:
            weights = _weights(edges, lam)
            cycle = _negative_cycle(edges.tail, edges.head, weights, pot)
            searches += 1
            if cycle is None:
                break
            if not any(edges.rate[e] for e in cycle):
                # solve_fpp has checked that the hard sides hold together
                raise RuntimeError(
                    f"a cycle of hard sides in block {block.matrix.parent!r} "
                    f"is negative by round-off at level {lam}"
                )
            root = _root(edges, cycle, lo, lam)
            if root >= lam:
                break  # the level is within round-off of the cycle's root
            lam = root
        size = len(pot)
        dist = _shortest_paths(size, edges.tail, edges.head, weights)
        if floor is not None and not _keeps_floor(_deepest(dist, node, off), floor):
            # the floor binds below this level, and one point keeps it there
            lam, x = _floor_point(edges, node, off, floor, lo, lam)
            return _Path(x, levels + [lam], searches)
        lo = lam
        # merge the nodes pinned to each other into the lowest of them
        group = list(range(size))
        for u in range(size):
            if group[u] == u:
                for v in range(u + 1, size):
                    if group[v] == v and dist[u][v] + dist[v][u] <= _PINNED:
                        group[v] = u
        at = _first_closing(edges, dist)[1] if group == list(range(size)) else -1
        if at >= 0:
            # Near the level where a rising side's bound reaches 0 its weight
            # changes by more than _PINNED between neighbouring floats, so
            # no level may bring the stage's cycle within _PINNED: pin the
            # ends of the free edge that closes a zero cycle first.
            u, v = sorted((edges.tail[at], edges.head[at]))
            group[v] = u
        moved = [0.5 * (dist[g][v] - dist[v][g]) for v, g in enumerate(group)]
        roots = sorted(set(group))
        index = {g: i for i, g in enumerate(roots)}
        tails, heads = edges.tail, edges.head
        keep = [i for i, (u, v) in enumerate(zip(tails, heads)) if group[u] != group[v]]
        edges = _Edges(
            [index[group[tails[i]]] for i in keep],
            [index[group[heads[i]]] for i in keep],
            [edges.sign[i] for i in keep],
            [edges.base[i] for i in keep],
            [edges.rate[i] for i in keep],
            [edges.const[i] + moved[tails[i]] - moved[heads[i]] for i in keep],
        )
        levels.append(lam)
        for i in range(n):
            off[i] += moved[node[i]]
            node[i] = index[group[node[i]]]
        pot = [pot[g] for g in roots]
        if not any(edges.rate):
            break
        # between the merged nodes the paths are those between their roots
        dist = [[dist[g][h] for h in roots] for g in roots]
        weights = [weights[i] + moved[tails[i]] - moved[heads[i]] for i in keep]
        hi = _next_level(edges, weights, dist, lam)
    return _Path([pot[node[i]] + off[i] for i in range(n)], levels, searches)


def solve_fpp(
    matrix: ComparisonMatrix, config: SolverConfig | None = None
) -> SolveResult:
    """Maximize the common membership level lambda over the weight simplex,
    and return the leximin weights among those that reach it.

    Starts from the logarithmic least-squares weights of the judgments'
    modes, which are returned clamped when their lambda reaches
    lambda_cap. Otherwise the parametric negative-cycle search finds
    lambda* and the leximin stages the weights, every weight at
    weight_floor or above; the reported lambda is theirs, capped at
    lambda_cap (clamped). Raises InfeasibleJudgmentsError, naming the
    conflicting pairs, when the hard (zero-spread) sides of the judgments
    cannot all hold with every weight at the floor or above.
    """
    cfg = config or SolverConfig()
    block = _block(matrix)
    _check_floor(matrix, cfg)
    cap, floor = cfg.lambda_cap, cfg.weight_floor
    w, lam = _least_squares_start(block, cfg)
    if lam >= cap - _CLAMP_TOL:
        return _result(matrix, w, cap, 0, True)
    slack = _hard_slack(block, floor)
    pot = [math.log(v) for v in w]
    path = _leximin(block, pot, lam, slack)
    w, searches = _normalized(path.x), path.searches
    if min(w) < floor:
        # the floor binds at some stage: run the stages again, checking it
        path = _leximin(block, pot, lam, slack, floor)
        w, searches = _normalized(path.x), searches + path.searches
    lam = _lowest_membership(block, w)
    if lam >= cap - _CLAMP_TOL:
        return _result(matrix, w, cap, searches, True)
    return _result(matrix, w, lam, searches, False)


def _result(
    matrix: ComparisonMatrix, w: list[float], lam: float, searches: int, clamped: bool
) -> SolveResult:
    lam = float(lam)
    return SolveResult(
        weights=dict(zip(matrix.items, w)),
        lambda_=lam,
        consistent=lam >= 0.0,
        iterations=searches,
        clamped=clamped,
        slack=None,
    )


def _lattice_size(n: int, units: int) -> int:
    return math.comb(units - 1, n - 1)


def _lines(n: int, units: int):
    """Each line of the lattice of n positive entries summing to units, in
    lexicographic order: its fixed entries k_1 ... k_{n-2} and the units
    left to the last two (n >= 2)."""
    for cuts in combinations(range(1, units - 1), n - 2):
        ks = [b - a for a, b in zip((0,) + cuts, cuts)]
        yield ks, units - sum(ks)


def _lowest(terms, w: list[float]) -> float:
    """The least term (w[i] / w[j] - p) / q over terms of (i, j, p, q); inf
    for none."""
    low = math.inf
    for i, j, p, q in terms:
        t = (w[i] / w[j] - p) / q
        if t < low:
            low = t
    return low


def _first(holds, lo: int, hi: int, start: int) -> int:
    """The least a in [lo, hi] where holds(a), or hi + 1 where none does;
    holds must be false up to some a and true from there on. The search
    strides away from start by doubling steps before it bisects, so an
    answer near start costs few calls."""
    if lo <= hi:
        start, step = min(max(start, lo), hi), 1
        if holds(start):
            while start - step >= lo and holds(start - step):
                start -= step
                step *= 2
            lo, hi = max(lo, start - step + 1), start - 1
        else:
            while start + step <= hi and not holds(start + step):
                start += step
                step *= 2
            lo, hi = start + 1, min(hi, start + step - 1)
    while lo <= hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid - 1
        else:
            lo = mid + 1
    return lo


def _line_best(
    value, cap: float, grows, shrinks, lo: int, hi: int, floor: float, guess: int
):
    """The greatest f(a) = min(cap, value(grows, a), value(shrinks, a)) over
    a in [lo, hi], the first a that reaches it and the first a where the
    growing part meets the shrinking one, all found from guess; or -inf,
    None and guess where f cannot beat floor. value(grows, a) must be
    nondecreasing in a and value(shrinks, a) nonincreasing, so f follows
    the growing part up to the meeting point and the shrinking part from
    there on."""
    guess = min(max(guess, lo), hi)
    # f peaks beside the meeting point, and the greater part at guess bounds
    # both parts there: before the meeting point the growing part is the
    # lesser, after it the shrinking one
    if min(cap, max(value(grows, guess), value(shrinks, guess))) <= floor:
        return -math.inf, None, guess
    meet = _first(lambda a: value(grows, a) >= value(shrinks, a), lo, hi, guess)
    left = value(grows, meet - 1) if meet > lo else -math.inf
    right = value(shrinks, meet) if meet <= hi else -math.inf
    top = min(cap, max(left, right))
    if top <= floor:
        return -math.inf, None, meet
    if left < top:
        return top, meet, meet
    first = _first(lambda a: value(grows, a) >= top, lo, meet - 1, meet - 1)
    return top, first, meet


def oracle_solve(matrix: ComparisonMatrix, grid_step: float) -> SolveResult:
    """Exhaustive simplex-lattice search, an independent check on solve_fpp.

    Returns the lattice point w = (k_1, ..., k_n) / N, with integer k_i >=
    1 and N = round(1 / grid_step), that maximizes min(1, the lowest grade
    of its soft judgment sides) among the points that meet the hard sides,
    the first in lexicographic order among equals, exactly as scoring every
    point would. Refuses blocks with more than four items and lattices of
    more than _ORACLE_MAX_POINTS points. iterations is the lattice size, the
    number of points the search answers for, which perfbench's
    solver.oracle_points reads as an exact count.

    Hard (zero-spread) judgment sides rarely hit a lattice point exactly;
    a point meets them when its worst relative violation, (l - r) / l or
    (r - u) / u, is at most _HARD_REL_TOL. Where no point does, the first
    point of least worst violation is returned, so exactly-consistent crisp
    blocks are still localized correctly, and its lambda is reported as
    -inf.

    The search goes line by line: a line fixes k_1 ... k_{n-2} and lets a =
    k_{n-1} run, with k_n = N - k_1 - ... - k_{n-1}; lines and the points on
    each come in lexicographic order. Correctly rounded division and
    subtraction are monotone, so along a line every side's grade is
    constant, nondecreasing or nonincreasing in a, and so is its hard
    violation. The points meeting the hard sides then form one interval,
    and over it min(1, lambda) rises to where the least nondecreasing grade
    meets the least nonincreasing one and falls after it: a few bisections
    find a line's first best point (_line_best), and a line whose best
    cannot beat the best so far, strictly, is skipped. Time grows with the
    number of lines, 4,753 for four items at 0.01, and memory is flat.
    """
    n = len(matrix.items)
    if n > ORACLE_MAX_ITEMS:
        raise ValueError(
            f"oracle refuses {n} items; lattice enumeration is limited to "
            f"{ORACLE_MAX_ITEMS}"
        )
    if not (1e-3 <= grid_step <= 0.05):
        raise ValueError(f"grid_step must lie in [0.001, 0.05], got {grid_step}")
    units = round(1.0 / grid_step)
    points = _lattice_size(n, units)
    if points > _ORACLE_MAX_POINTS:
        raise ValueError(
            f"grid step {grid_step} yields too many lattice points for n = {n}; "
            "use a coarser step"
        )
    # Each side becomes a term (i, j, p, q) of _lowest: its grade on a soft
    # side, and its slack, minus its relative violation, on a hard one, so
    # that a point meets the hard sides where their least slack is at least
    # -_HARD_REL_TOL and violates them least where that slack is greatest. Along a line,
    # w[n - 2] grows with a and w[n - 1] shrinks; terms are filed as
    # constant (0), nondecreasing (1) or nonincreasing (-1) in a.
    block = _block(matrix)
    soft = {0: [], 1: [], -1: []}
    hard = {0: [], 1: [], -1: []}
    grow, shrink = n - 2, n - 1
    for i, j, sign, base, slope in zip(
        block.row, block.col, block.sign, block.base, block.slope
    ):
        q = -sign * (slope or base)
        way = (i == grow or j == shrink) - (i == shrink or j == grow)
        (soft if slope else hard)[way if q > 0 else -way].append((i, j, base, q))
    tol = -_HARD_REL_TOL
    w = [0.0] * n
    rest = units

    def value(terms, a: int) -> float:
        w[grow], w[shrink] = a / units, (rest - a) / units
        return _lowest(terms, w)

    best_lambda = best_slack = -math.inf
    best = None
    # each search starts where it ended on the last line that ran it
    lo = hi = meet = slack_meet = 1
    for ks, rest in _lines(n, units):
        for i, k in enumerate(ks):
            w[i] = k / units
        last = rest - 1
        cap = min(1.0, _lowest(soft[0], w))
        if cap <= best_lambda:
            continue
        slack = _lowest(hard[0], w)
        if slack >= tol:
            lo = _first(lambda a: value(hard[1], a) >= tol, 1, last, lo)
            hi = _first(lambda a: value(hard[-1], a) < tol, lo, last, hi + 1) - 1
            if lo <= hi:
                top, a, meet = _line_best(
                    value, cap, soft[1], soft[-1], lo, hi, best_lambda, meet
                )
                if top > best_lambda:
                    best_lambda, best = top, (ks, a, rest)
                continue
        if best_lambda == -math.inf:
            # no point so far meets the hard sides: track the least violation
            top, a, slack_meet = _line_best(
                value, min(0.0, slack), hard[1], hard[-1], 1, last, best_slack,
                slack_meet,
            )
            if top > best_slack:
                best_slack, best = top, (ks, a, rest)
    ks, a, rest = best
    return SolveResult(
        weights={
            item: k / units for item, k in zip(matrix.items, ks + [a, rest - a])
        },
        lambda_=best_lambda,
        consistent=best_lambda >= 0.0,
        iterations=points,
        clamped=best_lambda >= 1.0 - 1e-12,
        slack=None,
    )
