"""Seeded input generators for the benchmark.

Every block is drawn around a latent weight vector w ~ Dirichlet(2, ..., 2).
A judgment on the pair (row, col) is oriented so that the row item carries
the larger latent weight, as in the paper's tables. Its mode is the latent
ratio times log-normal noise, kept within [1/9, 9]; its lower and upper
spreads are drawn independently and log-uniformly, in log terms, from
[SPREAD_LO, SPREAD_HI]. An exactly consistent block has no mode noise and a
latent vector tempered so that every ratio already lies within [1/9, 9];
its modes are then exact latent ratios, and the solver must reach lambda = 1
at the latent weights.

The generators depend on numpy only and never on the program under test, so
the inputs for a seed are the same whatever the program does with them.
"""

from __future__ import annotations

import math

import numpy as np

MODE_MIN, MODE_MAX = 1.0 / 9.0, 9.0
SPREAD_LO, SPREAD_HI = 0.05, 0.8
NOISE_SIGMA = 0.35
DIRICHLET_ALPHA = 2.0


def _latent(rng: np.random.Generator, n: int, consistent: bool) -> np.ndarray:
    w = rng.dirichlet(np.full(n, DIRICHLET_ALPHA))
    w = np.maximum(w, 1e-3)
    if consistent:
        # temper the vector so that no exact ratio falls outside the scale
        spread = math.log(w.max() / w.min())
        if spread > math.log(MODE_MAX) * 0.999:
            w = w ** (math.log(MODE_MAX) * 0.999 / spread)
    return w / w.sum()


def draw_block(
    rng: np.random.Generator,
    n: int,
    prefix: str,
    consistent: bool = False,
    noise: float = NOISE_SIGMA,
    spread: tuple[float, float] = (SPREAD_LO, SPREAD_HI),
) -> dict:
    """One complete comparison block over n items named prefix1..prefixn.

    Returns a plain dict: items, judgments as [row, col, l, m, u] lists,
    the latent weights, and whether the block is exactly consistent.
    """
    items = [f"{prefix}{i + 1}" for i in range(n)]
    w = _latent(rng, n, consistent)
    lo, hi = math.log(spread[0]), math.log(spread[1])
    judgments = []
    for a in range(n):
        for b in range(a + 1, n):
            r, c = (a, b) if w[a] >= w[b] else (b, a)
            ratio = w[r] / w[c]
            if consistent:
                m = float(ratio)
            else:
                m = float(ratio * math.exp(rng.normal(0.0, noise)))
                m = min(max(m, MODE_MIN), MODE_MAX)
            d_lo = math.exp(rng.uniform(lo, hi))
            d_hi = math.exp(rng.uniform(lo, hi))
            judgments.append(
                [items[r], items[c], m * math.exp(-d_lo), m, m * math.exp(d_hi)]
            )
    return {
        "items": items,
        "judgments": judgments,
        "latent": [float(x) for x in w],
        "consistent": consistent or n == 2,
    }


# --- block pools -----------------------------------------------------------
#
# Workload inputs are drawn from fixed pools of generated blocks. Entry
# (kind, n, i) of a pool is generated from its own stream seeded by
# (POOL_SEED, kind, n, i), so any entry can be drawn on its own, and the run
# seed only decides which entries a workload uses. Entries that make the
# program fail are listed in known_faults.json (screen.py writes it): a seed
# never draws them, and one reproducer per kind of fault runs in every pass
# instead, so every run fails the same share of its operations whatever the
# seed.

POOL_SEED = 20220624
POOLS = {
    # kind: (sizes, entries per size, generator settings)
    "large": (range(6, 11), 70, {}),
    "small": (range(2, 6), 120, {}),
    "consistent": (range(3, 6), 20, {"consistent": True}),
    "oracle": (range(2, 5), 80, {"noise": 0.15, "spread": (0.7, 1.4)}),
}
_KIND_IDS = {kind: i for i, kind in enumerate(POOLS)}


def pool_block(kind: str, n: int, index: int, prefix: str = "x") -> dict:
    sizes, count, settings = POOLS[kind]
    if n not in sizes or not 0 <= index < count:
        raise ValueError(f"no pool entry {kind}/{n}/{index}")
    rng = np.random.default_rng([POOL_SEED, _KIND_IDS[kind], n, index])
    block = draw_block(rng, n, prefix, **settings)
    block["pool"] = f"{kind}/{n}/{index}"
    return block


def relabel(block: dict, names: list[str]) -> dict:
    """The same block with its items renamed, in order, to names."""
    rename = dict(zip(block["items"], names))
    out = dict(block)
    out["items"] = list(names)
    out["judgments"] = [
        [rename[r], rename[c], l, m, u] for r, c, l, m, u in block["judgments"]
    ]
    return out
