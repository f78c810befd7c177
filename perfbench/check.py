"""Correctness checks computed apart from the program under test.

Nothing here imports fahp. Memberships are recomputed from the judgments,
optimality is judged by scipy's HiGHS, and the 2-item and exactly consistent
cases are compared with their closed-form answers. The checks run in the
benchmark's parent process, after the timed phase, so neither their time nor
scipy's memory is measured.
"""

from __future__ import annotations

import numpy as np

WEIGHT_FLOOR = 1e-6
SUM_TOL = 1e-9
LAMBDA_AT_TOL = 1e-5
OPTIMALITY_STEP = 1e-5
ANALYTIC_TOL = 1e-6
PRODUCT_REL_TOL = 1e-12


def membership(l: float, m: float, u: float, ratio: float) -> float:
    """Linear triangular membership, unclamped below zero, capped at 1.

    A side with zero spread is a hard bound: inside it scores +inf, outside
    -inf, with the same 1e-12 relative slack the documented format allows.
    """
    if m > l:
        rising = (ratio - l) / (m - l)
    else:
        rising = np.inf if ratio >= l * (1 - 1e-12) else -np.inf
    if u > m:
        falling = (u - ratio) / (u - m)
    else:
        falling = np.inf if ratio <= u * (1 + 1e-12) else -np.inf
    return min(rising, falling, 1.0)


def lambda_at(block: dict, weights: dict[str, float]) -> float:
    return min(
        membership(l, m, u, weights[r] / weights[c])
        for r, c, l, m, u in block["judgments"]
    )


def max_slack_at(block: dict, lam: float) -> float:
    """HiGHS optimum of max t s.t. every judgment row + t <= 0 at level lam,
    sum w = 1, w >= WEIGHT_FLOOR. Negative exactly when lam is infeasible."""
    from scipy.optimize import linprog

    items = block["items"]
    idx = {it: i for i, it in enumerate(items)}
    n = len(items)
    rows = []
    for r, c, l, m, u in block["judgments"]:
        lower = np.zeros(n + 1)
        lower[idx[c]] = (m - l) * lam + l
        lower[idx[r]] = -1.0
        upper = np.zeros(n + 1)
        upper[idx[c]] = (u - m) * lam - u
        upper[idx[r]] = 1.0
        lower[n] = upper[n] = 1.0
        rows += [lower, upper]
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    cost = np.zeros(n + 1)
    cost[n] = -1.0
    bounds = [(WEIGHT_FLOOR, None)] * n + [(None, None)]
    res = linprog(
        cost,
        A_ub=np.array(rows),
        b_ub=np.zeros(len(rows)),
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=bounds,
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference LP failed: {res.message}")
    return float(-res.fun)


def check_block(block: dict, weights: dict[str, float], lam: float) -> list[str]:
    """Problems with one solved block; empty when the solution is right."""
    problems = []
    if set(weights) != set(block["items"]):
        return [f"weights name {sorted(weights)}, expected {block['items']}"]
    w = np.array([weights[it] for it in block["items"]])
    if not np.all(w > 0):
        problems.append("a weight is not positive")
        return problems
    if abs(w.sum() - 1.0) > SUM_TOL:
        problems.append(f"weights sum to {w.sum()!r}")
    reached = lambda_at(block, weights)
    if reached < lam - LAMBDA_AT_TOL:
        problems.append(
            f"weights reach lambda {reached!r}, below the reported {lam!r} "
            f"by {lam - reached:.3g}"
        )
    if lam < 1.0:
        t = max_slack_at(block, lam + OPTIMALITY_STEP)
        if t >= 0.0:
            problems.append(
                f"HiGHS finds lambda {lam + OPTIMALITY_STEP!r} feasible "
                f"(slack {t:.3g}); the reported lambda is not optimal"
            )
    if block["consistent"]:
        latent = np.array(block["latent"])
        if len(block["items"]) == 2:
            r, c, _, m, _ = block["judgments"][0]
            analytic = {r: m / (1.0 + m), c: 1.0 / (1.0 + m)}
            latent = np.array([analytic[it] for it in block["items"]])
        if lam != 1.0:
            problems.append(f"consistent block gave lambda {lam!r}, expected 1")
        err = float(np.max(np.abs(w - latent)))
        if err > ANALYTIC_TOL:
            problems.append(f"weights miss the analytic answer by {err:.3g}")
    return problems
