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
(to within 1e-8). Consecutive LPs of a block differ only in their
coefficients, so each starts from the final basis of the one before (the
lambda_cap probe's, for the first): solve_lp certifies that basis from a
small square system when it is still optimal, and returns without a
pivot, and otherwise re-optimises from it with the dual and primal
simplex. Only the probe, and a basis that cannot be used, are solved cold.
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
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InfeasibleJudgmentsError, ValidationError
from .fuzzy import _CRISP_REL_TOL
from .hierarchy import ComparisonMatrix, validate_matrix
from .simplex import solve_lp

# Slack this close to zero still counts as feasible; absorbs LP float noise.
_SLACK_FEAS_TOL = 1e-11
# The Dinkelbach iteration stops once its normalized slack is this small, ten
# times the LP's own tolerances. Below that the LP cannot tell the vertices
# of the optimal face apart, and the one it returned would depend on the
# order of the items.
_DINKELBACH_TOL = 1e-8
# Relative tolerance for hard (zero-spread) judgment sides in the oracle.
_HARD_REL_TOL = 1e-9

#: Documented agreement tolerances between solve_fpp and oracle_solve on
#: matrices whose judgment spreads are wide relative to the grid step.
ORACLE_LAMBDA_TOL = 0.03
ORACLE_WEIGHT_TOL = 0.03
ORACLE_MAX_ITEMS = 4
_ORACLE_MAX_POINTS = 20_000_000


@dataclass(frozen=True)
class SolverConfig:
    """Membership cap and weight floor for the solver."""

    lambda_cap: float = 1.0
    weight_floor: float = 1e-6

    def __post_init__(self):
        # memberships are capped at 1, so a larger cap never binds
        if not (math.isfinite(self.lambda_cap) and self.lambda_cap <= 1.0):
            raise ValueError(
                f"lambda_cap must be finite and at most 1, got {self.lambda_cap}"
            )
        if not (self.weight_floor > 0 and math.isfinite(self.weight_floor)):
            raise ValueError(
                f"weight_floor must be positive and finite, got {self.weight_floor}"
            )


@dataclass(frozen=True)
class SolveResult:
    """Weights and diagnostics for one comparison block.

    ``iterations`` counts the LPs solved. ``slack`` is the objective of the
    last max-slack LP, solved at the returned lambda (normalized by each
    side's denominator unless the block is clamped); a clearly positive
    slack means the weight vector is not pinned down uniquely at that
    lambda. The oracle leaves it as None.
    """

    weights: dict[str, float]
    lambda_: float
    consistent: bool
    iterations: int
    clamped: bool
    slack: float | None = None

    def weight_vector(self) -> np.ndarray:
        return np.array(list(self.weights.values()))


def _index(matrix: ComparisonMatrix) -> dict[str, int]:
    return {item: i for i, item in enumerate(matrix.items)}


def _sides(
    matrix: ComparisonMatrix,
) -> tuple[np.ndarray, np.ndarray, list[tuple[str, str]]]:
    """Constraint rows of every judgment side, as base + lambda * spread.

    Side i holds at level lambda when (base_i + lambda * spread_i) @ w <= 0,
    and spread_i @ w is its denominator D_i(w): (m - l) * w_col for the
    rising side, (u - m) * w_col for the falling one. A hard side has a
    zero spread row. Also returns the (row, col) pair of each side.
    """
    idx = _index(matrix)
    k = 2 * len(matrix.judgments)
    base = np.zeros((k, len(matrix.items)))
    spread = np.zeros_like(base)
    pairs = []
    for i, j in enumerate(matrix.judgments):
        r, c = idx[j.row], idx[j.col]
        l, m, u = j.value.as_tuple()
        rising, falling = 2 * i, 2 * i + 1
        base[rising, c], base[rising, r], spread[rising, c] = l, -1.0, m - l
        base[falling, c], base[falling, r], spread[falling, c] = -u, 1.0, u - m
        pairs += [(j.row, j.col)] * 2
    return base, spread, pairs


def _check_floor(matrix: ComparisonMatrix, config: SolverConfig) -> None:
    if len(matrix.items) * config.weight_floor >= 1.0:
        raise ValueError(
            f"weight_floor {config.weight_floor} is too large for "
            f"{len(matrix.items)} items"
        )


def _max_slack(
    rows: np.ndarray, scale: np.ndarray, config: SolverConfig, basis=None
) -> tuple[float, np.ndarray, tuple[int, ...] | None] | None:
    """Best slack t, its weight vector and the LP's final basis for the
    constraint rows, or None when the rows with a zero scale cannot all hold.
    `basis` is the final basis of an earlier call on rows of the same shape,
    passed to solve_lp as its starting-basis hint.

    Solves max t subject to rows_k @ w + t * scale_k <= 0 for every row,
    sum w = 1, w >= weight_floor. With a unit scale t >= 0 exactly when
    every row can hold.

    The LP is posed in v = w - weight_floor, which leaves the right-hand
    side -weight_floor * rows_k.sum() on each row, about half of them
    negative. t is free and every row with scale_k > 0 carries it, so it is
    solved for t + theta instead, with theta the least shift that makes all
    of those right-hand sides nonnegative: each such row then starts the
    simplex with its own slack basic, and only the equality row and the
    hard (zero-scale) rows with a negative right-hand side need phase 1.
    """
    k, n = rows.shape
    eps = config.weight_floor
    # variables: v = w - eps (n), then t + theta = tp - tn split into
    # nonnegatives
    a_ub = np.zeros((k, n + 2))
    a_ub[:, :n] = rows
    a_ub[:, n] = scale
    a_ub[:, n + 1] = -scale
    b_ub = -eps * rows.sum(axis=1)
    soft = scale > 0
    theta = float((-b_ub[soft] / scale[soft]).max(initial=0.0))
    b_ub += theta * scale
    a_eq = np.zeros((1, n + 2))
    a_eq[0, :n] = 1.0
    b_eq = np.array([1.0 - n * eps])
    c = np.zeros(n + 2)
    c[n] = -1.0
    c[n + 1] = 1.0
    res = solve_lp(c, a_ub, b_ub, a_eq, b_eq, basis=basis)
    if res.status == "infeasible":
        return None
    if res.status != "optimal":
        raise RuntimeError(f"max-slack subproblem unexpectedly {res.status}")
    t = float(res.x[n] - res.x[n + 1]) - theta
    w = res.x[:n] + eps
    return t, w / w.sum(), res.basis


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


class _Judged(NamedTuple):
    """The judgments of a block as arrays, made once per block for
    _lowest_membership. A hard side has a span of 1 and its bound in
    `floor` or `ceiling`."""

    row: np.ndarray  # item index of each judgment's row
    col: np.ndarray
    l: np.ndarray
    m: np.ndarray
    u: np.ndarray
    rise_span: np.ndarray  # m - l
    fall_span: np.ndarray  # u - m
    hard_rise: np.ndarray  # indices of the judgments with m == l
    floor: np.ndarray  # l * (1 - tol) of those
    hard_fall: np.ndarray  # indices of the judgments with u == m
    ceiling: np.ndarray  # u * (1 + tol) of those
    crisp: np.ndarray  # indices of the judgments with l == u


def _judged(matrix: ComparisonMatrix) -> _Judged:
    idx = _index(matrix)
    row = np.array([idx[j.row] for j in matrix.judgments])
    col = np.array([idx[j.col] for j in matrix.judgments])
    l, m, u = np.array([j.value.as_tuple() for j in matrix.judgments]).T
    hard_rise, hard_fall = (m == l).nonzero()[0], (u == m).nonzero()[0]
    return _Judged(
        row, col, l, m, u,
        np.where(m > l, m - l, 1.0),
        np.where(u > m, u - m, 1.0),
        hard_rise, l[hard_rise] * (1 - _CRISP_REL_TOL),
        hard_fall, u[hard_fall] * (1 + _CRISP_REL_TOL),
        (l == u).nonzero()[0],
    )


def _lowest_membership(judged: _Judged, vec: np.ndarray) -> float:
    """min(1, the lowest fuzzy.membership any judgment assigns to the ratio
    vec[row] / vec[col]), bit for bit: the same arithmetic, on arrays."""
    ratio = vec[judged.row] / vec[judged.col]
    rising = (ratio - judged.l) / judged.rise_span
    falling = (judged.u - ratio) / judged.fall_span
    if judged.hard_rise.size:
        rising[judged.hard_rise] = np.where(
            ratio[judged.hard_rise] >= judged.floor, np.inf, -np.inf
        )
    if judged.hard_fall.size:
        falling[judged.hard_fall] = np.where(
            ratio[judged.hard_fall] <= judged.ceiling, np.inf, -np.inf
        )
    value = np.minimum(rising, falling)
    if judged.crisp.size:
        # math.isclose(ratio, m, rel_tol=_CRISP_REL_TOL), for finite ratios
        at, mode = ratio[judged.crisp], judged.m[judged.crisp]
        hit = np.abs(at - mode) <= _CRISP_REL_TOL * np.maximum(at, mode)
        value[judged.crisp] = np.where(hit & (at < np.inf), 1.0, -np.inf)
    return min(float(value.min()), 1.0)


def lambda_at(matrix: ComparisonMatrix, w) -> float:
    """Lowest membership any judgment assigns to the weight vector w.

    Accepts a mapping item -> weight or a sequence aligned with
    matrix.items. This is the objective the solver maximizes; for any
    solved block that is not clamped, lambda_at(matrix, result.weights)
    equals result.lambda_.
    """
    validate_matrix(matrix)
    return _lowest_membership(_judged(matrix), _as_vector(matrix, w))


def feasible_at(
    matrix: ComparisonMatrix, lam: float, config: SolverConfig | None = None
) -> dict[str, float] | None:
    """A strictly positive weight vector meeting every judgment at level lam,
    or None when that level is unattainable.

    The vector returned is the max-slack one, i.e. the deepest interior
    point of the feasible region at that lambda.
    """
    cfg = config or SolverConfig()
    validate_matrix(matrix)
    _check_floor(matrix, cfg)
    base, spread, _ = _sides(matrix)
    t, w, _ = _max_slack(base + lam * spread, np.ones(len(base)), cfg)
    if t < -_SLACK_FEAS_TOL:
        return None
    return dict(zip(matrix.items, (float(x) for x in w)))


def _raise_conflict(
    matrix: ComparisonMatrix,
    rows: np.ndarray,
    pairs: list[tuple[str, str]],
    cfg: SolverConfig,
) -> None:
    """Raise InfeasibleJudgmentsError for hard sides that cannot all hold,
    naming the pairs whose sides the max-slack vector over them violates."""
    _, w, _ = _max_slack(rows, np.ones(len(rows)), cfg)
    violated = list(
        dict.fromkeys(p for p, a in zip(pairs, rows @ w) if a > _SLACK_FEAS_TOL)
    )
    listing = ", ".join(f"({r}, {c})" for r, c in violated) or "unknown"
    raise InfeasibleJudgmentsError(
        f"matrix {matrix.parent!r}: no weight vector meets the zero-spread "
        f"judgment bounds; violated pairs: {listing}",
        pairs=violated,
    )


def solve_fpp(
    matrix: ComparisonMatrix, config: SolverConfig | None = None
) -> SolveResult:
    """Maximize the common membership level lambda over the weight simplex.

    Probes lambda_cap first (consistent blocks short-circuit there), then
    runs the Dinkelbach iteration from that probe's weight vector until its
    slack reaches zero. It stops before the slack falls to the LP's noise
    level, where ties between vertices of the optimal face would make the
    weights depend on the order of the items. Raises
    InfeasibleJudgmentsError, naming the conflicting pairs, when the hard
    (zero-spread) sides of the judgments cannot all hold.
    """
    cfg = config or SolverConfig()
    validate_matrix(matrix)
    _check_floor(matrix, cfg)
    base, spread, pairs = _sides(matrix)
    hard = ~spread.any(axis=1)
    # Hard sides are held as constraints, not slacked, unless nothing else
    # bounds the slack.
    scale = np.ones(len(base)) if hard.all() else (~hard).astype(float)
    probe = _max_slack(base + cfg.lambda_cap * spread, scale, cfg)
    if probe is None or (hard.all() and probe[0] < -_SLACK_FEAS_TOL):
        _raise_conflict(matrix, base[hard], [p for p, h in zip(pairs, hard) if h], cfg)
    slack, w, basis = probe
    probes = 1
    if slack >= -_SLACK_FEAS_TOL:
        return _result(matrix, w, cfg.lambda_cap, probes, True, slack)
    judged = _judged(matrix)
    lam = _lowest_membership(judged, w)
    while True:
        # max t s.t. N_i(w) - lam * D_i(w) >= t * D_i(w_k) on every soft side
        slack, w_next, basis = _max_slack(base + lam * spread, spread @ w, cfg, basis)
        probes += 1
        if slack <= _DINKELBACH_TOL:
            break
        lam_next = _lowest_membership(judged, w_next)
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
    slack: float,
) -> SolveResult:
    lam = float(lam)
    return SolveResult(
        weights=dict(zip(matrix.items, (float(x) for x in w))),
        lambda_=lam,
        consistent=lam >= 0.0,
        iterations=probes,
        clamped=clamped,
        slack=float(slack),
    )


def _lattice(n: int, units: int) -> np.ndarray:
    """All integer vectors of length n with positive entries summing to units,
    in lexicographic order."""
    if units < n:
        raise ValueError("grid step too coarse: fewer lattice units than items")
    points = np.empty((1, 0), dtype=np.int64)
    left = np.array([units], dtype=np.int64)
    for free in range(n - 1, 0, -1):
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


def oracle_solve(matrix: ComparisonMatrix, grid_step: float) -> SolveResult:
    """Exhaustive simplex-lattice search, an independent check on solve_fpp.

    Evaluates lambda_at on every weight vector (k_1, ..., k_n) / N with
    integer k_i >= 1 and N = round(1 / grid_step), and returns the best
    point. Refuses blocks with more than four items; the lattice grows
    combinatorially.

    Hard (zero-spread) judgment sides rarely hit a lattice point exactly;
    among points violating some hard side, the one with the smallest worst
    relative violation is preferred, so exactly-consistent crisp blocks are
    still localized correctly. Its lambda is reported as -inf.
    """
    validate_matrix(matrix)
    n = len(matrix.items)
    if n > ORACLE_MAX_ITEMS:
        raise ValueError(
            f"oracle refuses {n} items; lattice enumeration is limited to "
            f"{ORACLE_MAX_ITEMS}"
        )
    if not (1e-3 <= grid_step <= 0.05):
        raise ValueError(f"grid_step must lie in [0.001, 0.05], got {grid_step}")
    units = round(1.0 / grid_step)
    if _lattice_size(n, units) > _ORACLE_MAX_POINTS:
        raise ValueError(
            f"grid step {grid_step} yields too many lattice points for n = {n}; "
            "use a coarser step"
        )
    lattice = _lattice(n, units)
    weights = lattice.astype(float) / units
    idx = _index(matrix)
    lam = np.full(weights.shape[0], np.inf)
    hard_violation = np.zeros(weights.shape[0])
    for j in matrix.judgments:
        ratio = weights[:, idx[j.row]] / weights[:, idx[j.col]]
        l, m, u = j.value.as_tuple()
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
        best_lambda = float(scored[best])
    else:
        best = int(np.argmin(hard_violation))
        best_lambda = float("-inf")
    w = weights[best]
    return SolveResult(
        weights=dict(zip(matrix.items, (float(x) for x in w))),
        lambda_=best_lambda,
        consistent=best_lambda >= 0.0,
        iterations=int(weights.shape[0]),
        clamped=best_lambda >= 1.0 - 1e-12,
        slack=None,
    )
