"""Global weight composition and ranking over a two-level hierarchy.

A leaf's global weight is its category weight times its local weight,
taken as the raw product. No renormalization happens here: when block
weights carry rounding error the global column may sum slightly off 1,
and that is reported as-is. Use normalize() separately when a unit sum
is wanted.
"""

from __future__ import annotations

from typing import Mapping

from ._record import record
from .errors import CompositionError


@record
class RankingRow:
    leaf: str
    category: str
    category_weight: float
    local_weight: float
    global_weight: float
    rank: int


@record
class GlobalRanking:
    rows: tuple[RankingRow, ...]

    def as_dict(self) -> dict[str, float]:
        return {r.leaf: r.global_weight for r in self.rows}

    def ranks(self) -> dict[str, int]:
        return {r.leaf: r.rank for r in self.rows}


def rank(weights: Mapping[str, float]) -> dict[str, int]:
    """Dense 1..n ranks by descending weight; ties break by ascending id.

    The returned mapping iterates in rank order.
    """
    if not weights:
        raise ValueError("cannot rank an empty weight map")
    ordered = sorted(weights, key=lambda item: (-weights[item], item))
    return {item: pos + 1 for pos, item in enumerate(ordered)}


def normalize(weights: Mapping[str, float]) -> dict[str, float]:
    """Scale strictly positive weights so they sum to one."""
    if not weights:
        raise ValueError("cannot normalize an empty weight map")
    if any(w <= 0 for w in weights.values()):
        raise ValueError("weights must be strictly positive to normalize")
    total = sum(weights.values())
    return {item: w / total for item, w in weights.items()}


def compose_global(
    category_weights: Mapping[str, float],
    local_weights: Mapping[str, Mapping[str, float]],
) -> GlobalRanking:
    """Combine category and within-category weights into a global ranking.

    Args:
        category_weights: weight of each category.
        local_weights: per category, the weights of its leaves.

    Every category appearing in local_weights must have a category weight;
    a missing one raises CompositionError naming the stranded leaves.
    """
    by_leaf: dict[str, tuple[str, float, float]] = {}
    for category, locals_ in local_weights.items():
        if category not in category_weights:
            raise CompositionError(
                f"no category weight for {category!r}; leaves "
                f"{', '.join(sorted(locals_))} cannot be composed"
            )
        cw = float(category_weights[category])
        if cw <= 0:
            raise CompositionError(f"category weight for {category!r} must be positive")
        for leaf, lw in locals_.items():
            if leaf in by_leaf:
                raise CompositionError(f"leaf {leaf!r} appears in more than one category")
            if lw <= 0:
                raise CompositionError(f"local weight for {leaf!r} must be positive")
            by_leaf[leaf] = (category, cw, float(lw))
    if not by_leaf:
        raise CompositionError("no leaves to compose")
    globals_ = {leaf: cw * lw for leaf, (_, cw, lw) in by_leaf.items()}
    return GlobalRanking(
        rows=tuple(
            RankingRow(leaf, *by_leaf[leaf], globals_[leaf], pos)
            for leaf, pos in rank(globals_).items()
        )
    )
