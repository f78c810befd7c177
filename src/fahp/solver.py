"""Preference-programming solver for fuzzy pairwise comparison blocks.

Finds the crisp weight vector whose ratios satisfy every fuzzy judgment to
the highest common membership degree lambda. Each judgment (l, m, u) on the
pair (row, col) has two sides, and the membership of each is a ratio of
linear functions of w:

    rising  = (w_row - l * w_col) / ((m - l) * w_col)
    falling = (u * w_col - w_row) / ((u - m) * w_col)

so lambda* = max_w min_i N_i(w) / D_i(w) is a generalized fractional
program. It is solved exactly by the normalized Dinkelbach iteration of
Crouzeix, Ferland and Schaible (JOTA 47, 1985): at lambda_k = lambda_at(w_k)
one LP maximizes t subject to N_i(w) - lambda_k * D_i(w) >= t * D_i(w_k)
for every side, and its solution w_{k+1} raises lambda until t reaches 0
(to within 1e-8). Every block starts from the logarithmic least-squares
weights of the judgments' modes (Crawford and Williams, J. Math. Psych. 29,
1985), one n x n linear system, and its first LP from a crash basis whose
tight rows are n soft sides of low membership there that span the items.
Weights that reach lambda_cap, the start or any iterate, are returned
clamped; consistent modes are clamped without an LP. Where the start misses
a hard side, its lambda is -inf and the first LP is posed at lambda_cap
instead; its solution is the first iterate. The first LP is also the
verdict on the hard sides: it is infeasible when they conflict.
A block is read once into one side table (_Block): judgment i's rising
side is side 2i and its falling side 2i + 1, each with its items, base
coefficient, sign and slope. Every membership the solver takes (lambda_at,
the start's and each iterate's lambda, the crash basis's ranking) comes
from one rule on that table (_memberships), bit for bit fuzzy.membership,
and the LP's side rows are written from the same arrays. Consecutive LPs
of a block differ only in their coefficients. Its LP is built once, after
the clamp check, in the simplex's form (_slack_form, at level 0 with a
unit scale), and a step (_pose) rewrites only the one entry per row that
depends on lambda, the slack scale and the right-hand sides. The step
re-solves from the LP before's final basis, working set and all: the
simplex inverts that set, an (n + 2)-square matrix, returns without a pivot
when the basis is still optimal, and otherwise re-optimises from it. Each
result is bit for bit that of the same LP posed in a fresh form from the
same basis. A block whose every side is hard has no denominators: one LP
with a unit scale decides it.
A side with zero spread (m == l or u == m) is a hard bound on the ratio, a
constraint that does not depend on lambda. The reported lambda is
lambda_at(weights); lambda >= 0 certifies that some weight vector lies
inside every judgment's support, and negative lambda measures how strongly
the judgments contradict each other. lambda is capped at lambda_cap (1 by
default): beyond full membership there is nothing left to optimize.

A brute-force grid oracle over the simplex lattice is included as an
independent check on the optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import InfeasibleJudgmentsError
from .fuzzy import _CRISP_REL_TOL
from .hierarchy import ComparisonMatrix
from . import simplex

# Slack this close to zero still counts as feasible; absorbs LP float noise.
_SLACK_FEAS_TOL = 1e-11
# The Dinkelbach iteration stops once its normalized slack is this small, ten
# times the LP's own tolerances. Below that the LP cannot tell the vertices
# of the optimal face apart, and the one it returned would depend on the
# order of the items.
_DINKELBACH_TOL = 1e-8
# Weights whose lambda is this close to lambda_cap are returned clamped.
_CLAMP_TOL = 1e-9
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
# Bounds the oracle's time only: it scores the lattice _ORACLE_CHUNK points
# at a time, so its memory does not grow with the lattice.
_ORACLE_MAX_POINTS = 20_000_000
_ORACLE_CHUNK = 8192


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SolveResult:
    """Weights and diagnostics for one comparison block.

    ``iterations`` counts the LPs solved; it is 0 for a block clamped at its
    least-squares weights. ``slack`` is the objective of the last max-slack
    LP, or None when no LP ran. The oracle leaves it as None.
    """

    weights: dict[str, float]
    lambda_: float
    consistent: bool
    iterations: int
    clamped: bool
    slack: float | None = None

    def weight_vector(self) -> np.ndarray:
        return np.array(list(self.weights.values()))


def _check_floor(matrix: ComparisonMatrix, config: SolverConfig) -> None:
    if len(matrix.items) * config.weight_floor >= 1.0:
        raise ValueError(
            f"weight_floor {config.weight_floor} is too large for "
            f"{len(matrix.items)} items"
        )


class _Block(NamedTuple):
    """A comparison block's judgment sides, built once per solve_fpp,
    feasible_at or lambda_at call: the solver's one array form of a block.

    Judgment i's rising side is side 2i and its falling side 2i + 1. Side s
    holds at level lambda when (coef[s] + lambda * slope[s]) * w[col[s]] +
    sign[s] * w[row[s]] <= 0, with coef, sign and slope l, -1 and m - l on
    the rising side and -u, 1 and u - m on the falling one. A side with zero
    slope (m == l or u == m) is hard: it bounds the ratio whatever lambda.
    _memberships grades every side from these arrays alone."""

    matrix: ComparisonMatrix
    row: np.ndarray  # item index of each side's row
    col: np.ndarray
    coef: np.ndarray
    sign: np.ndarray
    slope: np.ndarray
    hard: np.ndarray  # indices of the hard sides
    bound: np.ndarray  # l * (1 - tol) or -u * (1 + tol) of each hard side
    m: np.ndarray  # each judgment's mode
    crisp: np.ndarray  # indices of the judgments with l == u


def _block(matrix: ComparisonMatrix) -> _Block:
    """Build the block's side table; the matrix was checked when it was
    built. Its arrays are contiguous, as numpy is slower on strided views."""
    idx = {item: i for i, item in enumerate(matrix.items)}
    row = np.array([idx[j.row] for j in matrix.judgments]).repeat(2)
    col = np.array([idx[j.col] for j in matrix.judgments]).repeat(2)
    tfns = [j.value for j in matrix.judgments]
    l, m, u = np.array(
        [[v.l for v in tfns], [v.m for v in tfns], [v.u for v in tfns]], dtype=float
    )
    coef = np.array([l, -u]).T.ravel()
    sign = np.ones(coef.size)
    sign[::2] = -1.0
    slope = np.array([m - l, u - m]).T.ravel()
    hard = (slope == 0.0).nonzero()[0]
    # l * (1 - tol) rising and -(u * (1 + tol)) falling, bit for bit
    bound = coef[hard] * (1.0 + sign[hard] * _CRISP_REL_TOL)
    crisp = (l == u).nonzero()[0]
    return _Block(matrix, row, col, coef, sign, slope, hard, bound, m, crisp)


def _memberships(block: _Block, vec: np.ndarray) -> np.ndarray:
    """fuzzy.membership of each side at the ratio vec[row] / vec[col], bit
    for bit: (-sign * ratio - coef) / slope on a soft side (ratio - l or
    u - ratio over the spread, the same roundings); on a hard side inf where
    sign * ratio + bound <= 0 (ratio >= l * (1 - tol) or ratio <= u * (1 +
    tol), exactly) and -inf elsewhere; and on both sides of a crisp judgment
    1 or -inf, as the ratio is close to m or not."""
    hard, crisp = block.hard, block.crisp
    ratio = vec[block.row] / vec[block.col]
    lean = block.sign * ratio
    value = -lean - block.coef
    if hard.size:
        # inf or -inf: over the hard side's +0 slope they stay themselves,
        # and inf / 0 raises no floating-point warning as finite / 0 would
        value[hard] = np.where(lean[hard] + block.bound <= 0.0, np.inf, -np.inf)
    value /= block.slope
    if crisp.size:
        # math.isclose(ratio, m, rel_tol=_CRISP_REL_TOL), for finite ratios
        at, mode = ratio[2 * crisp], block.m[crisp]
        hit = np.abs(at - mode) <= _CRISP_REL_TOL * np.maximum(at, mode)
        hit &= at < np.inf
        value.reshape(-1, 2)[crisp] = np.where(hit, 1.0, -np.inf)[:, None]
    return value


def _lowest_membership(block: _Block, vec: np.ndarray) -> float:
    """min(1, the lowest fuzzy.membership any judgment assigns to the ratio
    vec[row] / vec[col]), bit for bit."""
    return min(float(_memberships(block, vec).min()), 1.0)


def _slack_form(block: _Block, sides, cfg: SolverConfig) -> tuple:
    """The max-slack LP of the block's sides `sides` (side indices or a
    slice) over its weights in the simplex's form, posed at level 0 with a
    unit scale, and the flat index in g of each side row's col entry.

    The LP is max t subject to rows_k @ w + t * scale_k <= 0 for every row,
    sum w = 1, w >= weight_floor. It is posed in v = w - weight_floor, which
    leaves the right-hand side -weight_floor * rows_k.sum() on each row, and
    t = tp - tn split into nonnegatives: columns v, then tp and tn. With a
    unit scale t >= 0 exactly when every row can hold. Side s's row holds
    coef[s] + lambda * slope[s] at item col[s] and sign[s] at item row[s],
    so its sum is that entry + sign[s] bit for bit (one rounding).
    """
    n, coef, sign = len(block.matrix.items), block.coef[sides], block.sign[sides]
    k = coef.size
    c = np.zeros(n + 2)
    c[n], c[n + 1] = -1.0, 1.0
    g = np.zeros((n + k + 3, n + 2))
    g[: n + 2].flat[:: n + 3] = -1.0  # v >= 0, tp >= 0, tn >= 0
    g[-1, :n] = 1.0  # the sum row
    g[n + 2 : -1, n], g[n + 2 : -1, n + 1] = 1.0, -1.0  # the unit scale
    h = np.zeros(n + k + 3)
    h[-1] = 1.0 - n * cfg.weight_floor
    np.multiply(coef + sign, -cfg.weight_floor, out=h[n + 2 : -1])
    rows = np.arange(n + 2, n + k + 2)
    g[rows, block.row[sides]] = sign
    at = rows * (n + 2) + block.col[sides]
    g.ravel()[at] = coef
    return simplex._Form(c, g, h, n + k + 2), at


def _pose(form: simplex._Form, at, block: _Block, lam: float, scale, cfg) -> None:
    """Write every side row of the block's form at level lam, its slack
    scale and right-hand side, in place."""
    entry = block.coef + block.slope * lam
    form.g.ravel()[at] = entry
    n = form.c.size - 2
    rhs, tp = form.h[n + 2 : -1], form.g[n + 2 : -1, n]
    np.multiply(np.add(entry, block.sign, out=rhs), -cfg.weight_floor, out=rhs)
    tp[:] = scale
    np.negative(tp, out=form.g[n + 2 : -1, n + 1])


def _max_t(
    form: simplex._Form, cfg: SolverConfig, basis: simplex._Basis | None = None
) -> tuple[float, np.ndarray, simplex._Basis | None] | None:
    """Best slack t of the posed max-slack LP, its weight vector and the
    final basis, or None when the rows with a zero scale cannot all hold;
    `basis`, such as the final basis of the LP before, is updated in place."""
    res, basis = simplex._solve(form, basis)
    if res.status == "infeasible":
        return None
    if res.status != "optimal":
        raise RuntimeError(f"max-slack subproblem unexpectedly {res.status}")
    tp, tn = res.x[-2:].tolist()
    w = res.x[:-2] + cfg.weight_floor
    return tp - tn, w / w.sum(), basis


def _unit_slack(block: _Block, sides, cfg: SolverConfig) -> tuple | None:
    """_max_t for the block's sides `sides` at level 0, unit scale, from the
    slack basis."""
    return _max_t(_slack_form(block, sides, cfg)[0], cfg)


def _as_vector(matrix: ComparisonMatrix, w) -> np.ndarray:
    if isinstance(w, Mapping):
        missing = [it for it in matrix.items if it not in w]
        if missing:
            raise ValueError(f"weights missing for items: {', '.join(missing)}")
        vec = np.array([float(w[it]) for it in matrix.items])
    else:
        vec = np.asarray(w, dtype=float)
        if vec.shape != (len(matrix.items),):
            raise ValueError(
                f"weight vector has shape {vec.shape}, expected ({len(matrix.items)},)"
            )
    if not np.all(vec > 0):
        raise ValueError("weights must be strictly positive")
    if abs(vec.sum() - 1.0) > 1e-6:
        raise ValueError(f"weights must sum to 1, got {vec.sum()!r}")
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
    point of the feasible region at that lambda. No vector meets a level
    above 1, full membership. Raises ValueError when lam is not finite or
    is below FEASIBLE_AT_MIN_LAMBDA (-1e4), where round-off defeats the LP.
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
    form, at = _slack_form(block, slice(None), cfg)
    _pose(form, at, block, lam, 1.0, cfg)
    t, w, _ = _max_t(form, cfg)
    if t < -_SLACK_FEAS_TOL:
        return None
    return dict(zip(matrix.items, w.tolist()))


def _raise_conflict(block: _Block, cfg: SolverConfig) -> None:
    """Raise InfeasibleJudgmentsError for the hard sides that cannot all
    hold, naming the pairs of an irreducible subset of them.

    The subset comes from a deletion filter (Chinneck and Dravnieks, ORSA J.
    Computing 3, 1991) over the hard sides in judgment order: each side is
    dropped when the rest still cannot all hold, that is when their best
    slack with a unit scale is below -_SLACK_FEAS_TOL. The verdicts do not
    depend on the order of the items, so neither do the named pairs.
    """
    matrix, keep = block.matrix, block.hard.tolist()
    for side in list(keep):
        rest = [k for k in keep if k != side]
        if rest and _unit_slack(block, rest, cfg)[0] < -_SLACK_FEAS_TOL:
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
) -> tuple[np.ndarray, float]:
    """The logarithmic least-squares weights of the judgments' modes
    (Crawford and Williams, J. Math. Psych. 29, 1985) and their lambda, which
    is -inf where they miss a hard side. A block whose every side is hard has
    a lambda of 1 or -inf at any weight vector.

    x = log w minimizes the sum of (x_row - x_col - log m)^2 over the
    judgments: L x = b, with L the Laplacian of the comparison graph. The
    all-ones gauge makes L + 1 1^T nonsingular on a connected graph and
    fixes sum x = 0. The system is inverted by `inv`, which the LPs load
    anyway: `np.linalg.solve`, like `np.argsort` in _crash_basis, would
    add a tenth of a megabyte or more of numpy code to every process.

    Weights below the floor are mixed with it, w = floor + (1 - n * floor)
    * w, so that the start lies in the LP's region: a start outside it
    would be returned when no weight vector inside does better.
    """
    n, row, col = len(block.matrix.items), block.row[::2], block.col[::2]
    log_m = np.log(block.m)
    normal = np.ones((n, n))
    # 1 - 1 off the diagonal at each judged pair, which occurs once
    normal[row, col] = normal[col, row] = 0.0
    normal.ravel()[:: n + 1] += np.bincount(row, minlength=n) + np.bincount(
        col, minlength=n
    )
    rhs = np.bincount(row, log_m, n) - np.bincount(col, log_m, n)
    g = np.exp(np.linalg.inv(normal).dot(rhs))
    w = g / g.sum()
    if w.min() < cfg.weight_floor:
        w = cfg.weight_floor + (1.0 - n * cfg.weight_floor) * w
    return w, _lowest_membership(block, w)


def _crash_basis(form: simplex._Form, block: _Block, w) -> simplex._Basis | None:
    """A starting basis for the block's first Dinkelbach LP, from w, or None
    when the soft sides do not span the items. The weights and t are basic
    and n soft sides are tight (the sides that bind at a vertex near w);
    every other row's slack is basic.

    The tight sides are picked in ascending membership at w, the way
    Kruskal's algorithm picks a spanning tree: a side is taken while it
    joins two components of the item graph, until n - 1 of them span the
    items, and then the lowest side that closes a cycle. Tight sides picked
    by membership alone could make the working set singular."""
    k, n = block.row.size, w.size
    member = _memberships(block, w).tolist()
    soft = (block.slope > 0.0).nonzero()[0].tolist()
    row, col = block.row.tolist(), block.col.tolist()
    group = list(range(n))  # union-find forest over the items

    def root(i: int) -> int:
        while group[i] != i:
            group[i] = group[group[i]]
            i = group[i]
        return i

    tree, cycle = [], None
    for side in sorted(soft, key=member.__getitem__):
        a, b = root(row[side]), root(col[side])
        if a != b:
            group[a] = b
            tree.append(side)
        elif cycle is None:
            cycle = side
        if len(tree) == n - 1 and cycle is not None:
            break
    else:
        return None
    basic = np.ones(n + 2 + k, dtype=bool)
    basic[n + 1] = False  # tn
    basic[[n + 2 + side for side in tree + [cycle]]] = False
    return simplex._basis(form, basic)


def solve_fpp(
    matrix: ComparisonMatrix, config: SolverConfig | None = None
) -> SolveResult:
    """Maximize the common membership level lambda over the weight simplex.

    Runs the Dinkelbach iteration from the logarithmic least-squares weights
    of the judgments' modes, with a crash basis for the first LP, until its
    slack reaches zero. It stops before the slack falls to the LP's noise
    level, where ties between vertices of the optimal face would make the
    weights depend on the order of the items. Where those weights miss a
    hard side, the first LP is posed at lambda_cap, and its solution is the
    first iterate. The first weights, start or iterate, whose lambda reaches
    lambda_cap are returned clamped. Raises InfeasibleJudgmentsError, naming
    the conflicting pairs, when the hard (zero-spread) sides of the judgments
    cannot all hold.
    """
    cfg = config or SolverConfig()
    block = _block(matrix)
    _check_floor(matrix, cfg)
    cap = cfg.lambda_cap
    w, lam = _least_squares_start(block, cfg)
    if lam >= cap - _CLAMP_TOL:
        return _result(matrix, w, cap, 0, True, None)
    if block.hard.size == block.slope.size:
        # no side has a denominator, so one LP with a unit scale decides:
        # when the sides hold, they meet every judgment in full
        step = _unit_slack(block, slice(None), cfg)
        if step is None or step[0] < -_SLACK_FEAS_TOL:
            _raise_conflict(block, cfg)
        return _result(matrix, step[1], cap, 1, True, step[0])
    form, at = _slack_form(block, slice(None), cfg)
    basis, probes = _crash_basis(form, block, w), 0
    while True:
        # max t s.t. N_i(w) - lam * D_i(w) >= t * D_i(w_k) on every soft side,
        # at lambda_cap while w misses a hard side
        missed = lam == -math.inf
        _pose(form, at, block, cap if missed else lam, block.slope * w[block.col], cfg)
        step = _max_t(form, cfg, basis)
        if step is None:
            # The first LP is the hard sides' verdict; after that they have
            # held once, so only round-off.
            if probes == 0 and block.hard.size:
                _raise_conflict(block, cfg)
            raise RuntimeError(
                f"max-slack subproblem unexpectedly infeasible in block "
                f"{matrix.parent!r} at lambda {lam}"
            )
        slack, w_next, basis = step
        probes += 1
        if not missed and slack <= _DINKELBACH_TOL:
            break
        lam_next = _lowest_membership(block, w_next)
        if lam_next >= cap - _CLAMP_TOL:
            return _result(matrix, w_next, cap, probes, True, slack)
        if not lam_next > lam:
            break
        lam, w = lam_next, w_next
    return _result(matrix, w, lam, probes, False, slack)


def _result(
    matrix: ComparisonMatrix,
    w: np.ndarray,
    lam: float,
    probes: int,
    clamped: bool,
    slack: float | None,
) -> SolveResult:
    lam = float(lam)
    return SolveResult(
        weights=dict(zip(matrix.items, w.tolist())),
        lambda_=lam,
        consistent=lam >= 0.0,
        iterations=probes,
        clamped=clamped,
        slack=None if slack is None else float(slack),
    )


def _lattice(n: int, units: int) -> np.ndarray:
    """All integer vectors of length n with positive entries summing to units,
    in lexicographic order."""
    if units < n:
        raise ValueError("grid step too coarse: fewer lattice units than items")
    return _extend(
        np.empty((1, 0), dtype=np.int64), np.array([units], dtype=np.int64), n - 1
    )


def _extend(points: np.ndarray, left: np.ndarray, free: int) -> np.ndarray:
    """Each row of points followed by every vector of free + 1 positive
    entries summing to its entry of left, in lexicographic order."""
    for free in range(free, 0, -1):
        # each point takes k = 1 .. left - free next, leaving 1 for the rest
        counts = left - free
        parent = np.repeat(np.arange(left.size), counts)
        k = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts) + 1
        points = np.column_stack([points[parent], k])
        left = left[parent] - k
    return np.column_stack([points, left])


def _lattice_size(n: int, units: int) -> int:
    from math import comb

    return comb(units - 1, n - 1)


def _lattice_chunks(n: int, units: int, size: int, prefix: tuple[int, ...] = ()):
    """prefix followed by each point of _lattice(n, units), in lexicographic
    order, in consecutive chunks of at most size points (n >= 2)."""

    def chunk(ks: list[int]) -> np.ndarray:
        heads = np.array([prefix + (k,) for k in ks], dtype=np.int64)
        return _extend(heads, units - heads[:, -1], n - 2)

    # the next entry k leaves _lattice_size(n - 1, units - k) points, fewer
    # for each larger k: split those above size, and batch the rest up to it
    batch, count = [], 0
    for k in range(1, units - n + 2):
        points = _lattice_size(n - 1, units - k)
        if points > size:
            yield from _lattice_chunks(n - 1, units - k, size, prefix + (k,))
            continue
        if count + points > size:
            yield chunk(batch)
            batch, count = [], 0
        batch.append(k)
        count += points
    yield chunk(batch)


def oracle_solve(matrix: ComparisonMatrix, grid_step: float) -> SolveResult:
    """Exhaustive simplex-lattice search, an independent check on solve_fpp.

    Evaluates lambda_at on every weight vector (k_1, ..., k_n) / N with
    integer k_i >= 1 and N = round(1 / grid_step), and returns the best
    point, the first in lexicographic order among equals. Refuses blocks
    with more than four items and lattices of more than _ORACLE_MAX_POINTS
    points; both bound the time, which grows with the lattice. The lattice
    is scored in chunks of at most _ORACLE_CHUNK points, so memory stays
    flat whatever the step.

    Hard (zero-spread) judgment sides rarely hit a lattice point exactly;
    among points violating some hard side, the one with the smallest worst
    relative violation is preferred, so exactly-consistent crisp blocks are
    still localized correctly. Its lambda is reported as -inf.
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
    idx = {item: i for i, item in enumerate(matrix.items)}
    sides = [
        (idx[j.row], idx[j.col], *j.value.as_tuple()) for j in matrix.judgments
    ]
    # the first maximum of min(lam, 1) over hard-feasible points or, while
    # none has turned up, the first minimum of the hard violation; the first
    # feasible point sets best_violation to 0, below that of any other point
    best_lambda, best_violation, best_w = -math.inf, math.inf, None
    for lattice in _lattice_chunks(n, units, _ORACLE_CHUNK):
        weights = lattice.astype(float) / units
        lam = np.full(weights.shape[0], np.inf)
        hard_violation = np.zeros(weights.shape[0])
        for row, col, l, m, u in sides:
            ratio = weights[:, row] / weights[:, col]
            if m > l:
                lam = np.minimum(lam, (ratio - l) / (m - l))
            else:
                hard_violation = np.maximum(hard_violation, (l - ratio) / l)
            if u > m:
                lam = np.minimum(lam, (u - ratio) / (u - m))
            else:
                hard_violation = np.maximum(hard_violation, (ratio - u) / u)
        hard_ok = hard_violation <= _HARD_REL_TOL
        if hard_ok.any():
            scored = np.where(hard_ok, np.minimum(lam, 1.0), -np.inf)
            best = int(np.argmax(scored))
            if scored[best] > best_lambda:
                best_lambda, best_violation, best_w = scored[best], 0.0, weights[best]
        else:
            best = int(np.argmin(hard_violation))
            if hard_violation[best] < best_violation:
                best_violation, best_w = hard_violation[best], weights[best]
    best_lambda = float(best_lambda)
    return SolveResult(
        weights=dict(zip(matrix.items, (float(x) for x in best_w))),
        lambda_=best_lambda,
        consistent=best_lambda >= 0.0,
        iterations=points,
        clamped=best_lambda >= 1.0 - 1e-12,
        slack=None,
    )
