"""Triangular fuzzy numbers, the linguistic rating scale, and the linear
membership function used by the preference-programming solver.

A judgment "item A is preferred to item B" is carried as a triangular fuzzy
ratio (l, m, u): the analyst considers A between l and u times as important
as B, most plausibly m times. Membership grades how well a crisp weight
ratio agrees with such a judgment, and is deliberately left unclamped below
zero so that strongly violated judgments score strongly negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import UnknownTermError, ValidationError

# Relative tolerance for deciding that a ratio hits the mode of a crisp
# judgment exactly. Keeps float division noise from turning an exact hit
# into the -inf branch.
_CRISP_REL_TOL = 1e-12


@dataclass(frozen=True)
class TriangularFuzzyNumber:
    """A fuzzy ratio with support [l, u] and mode m, 0 < l <= m <= u < inf."""

    l: float
    m: float
    u: float

    def __post_init__(self):
        if not (self.l > 0 and self.l <= self.m <= self.u < math.inf):
            raise ValidationError(
                f"invalid triangular fuzzy number ({self.l}, {self.m}, {self.u}): "
                "requires finite 0 < l <= m <= u"
            )

    @property
    def is_crisp(self) -> bool:
        return self.l == self.u

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.l, self.m, self.u)


TFN = TriangularFuzzyNumber


@dataclass(frozen=True)
class LinguisticScale:
    """Ordered mapping from verbal terms to triangular fuzzy ratios.

    Terms must be unique and their modes strictly increasing, so the scale
    reads from the weakest to the strongest grade of preference.
    """

    entries: tuple[tuple[str, TriangularFuzzyNumber], ...]

    def __post_init__(self):
        terms = [t for t, _ in self.entries]
        if len(terms) != len(set(terms)):
            raise ValidationError("linguistic scale terms must be unique")
        modes = [v.m for _, v in self.entries]
        if any(b <= a for a, b in zip(modes, modes[1:])):
            raise ValidationError("linguistic scale modes must be strictly increasing")

    @property
    def terms(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.entries)

    def as_dict(self) -> dict[str, TriangularFuzzyNumber]:
        return dict(self.entries)


#: Five-grade scale used by the bundled study.
DEFAULT_SCALE = LinguisticScale(
    entries=(
        ("very low", TriangularFuzzyNumber(1, 2, 3)),
        ("low", TriangularFuzzyNumber(2, 3, 4)),
        ("medium", TriangularFuzzyNumber(3, 4, 5)),
        ("high", TriangularFuzzyNumber(4, 5, 6)),
        ("very high", TriangularFuzzyNumber(5, 6, 7)),
    )
)


def scale_lookup(term: str, scale: LinguisticScale = DEFAULT_SCALE) -> TriangularFuzzyNumber:
    """Resolve a verbal term against a linguistic scale.

    Raises UnknownTermError naming the term and the valid vocabulary when
    the term is absent.
    """
    for t, value in scale.entries:
        if t == term:
            return value
    raise UnknownTermError(
        f"unknown linguistic term {term!r}; valid terms: {', '.join(scale.terms)}"
    )


def membership(j: TriangularFuzzyNumber, ratio: float) -> float:
    """Linear membership of a crisp ratio in a triangular judgment.

    Rises from 0 at l to 1 at m, falls back to 0 at u, and keeps going
    linearly outside the support (negative values measure violation).
    A crisp judgment (l = m = u) scores 1.0 on an exact hit and -inf
    otherwise.

    Args:
        j: the fuzzy judgment.
        ratio: strictly positive weight ratio w_row / w_col.
    """
    if not (ratio > 0):
        raise ValidationError(f"ratio must be strictly positive, got {ratio}")
    if j.is_crisp:
        if math.isclose(ratio, j.m, rel_tol=_CRISP_REL_TOL):
            return 1.0
        return float("-inf")
    if j.m > j.l:
        rising = (ratio - j.l) / (j.m - j.l)
    else:
        # degenerate lower side: the bound l acts as a hard floor
        rising = float("inf") if ratio >= j.l * (1 - _CRISP_REL_TOL) else float("-inf")
    if j.u > j.m:
        falling = (j.u - ratio) / (j.u - j.m)
    else:
        # degenerate upper side: the bound u acts as a hard ceiling
        falling = float("inf") if ratio <= j.u * (1 + _CRISP_REL_TOL) else float("-inf")
    return min(rising, falling)


def reciprocal(j: TriangularFuzzyNumber) -> TriangularFuzzyNumber:
    """Mirror a judgment to the opposite orientation: (l,m,u) -> (1/u, 1/m, 1/l)."""
    return TriangularFuzzyNumber(1.0 / j.u, 1.0 / j.m, 1.0 / j.l)


def aggregate_judgments(
    judgments: Sequence[TriangularFuzzyNumber] | Iterable[TriangularFuzzyNumber],
    method: str = "geometric",
) -> TriangularFuzzyNumber:
    """Pool several experts' judgments of one pair into a single one.

    The default is the component-wise geometric mean, which preserves
    reciprocity of pooled judgments; "arithmetic" averages components
    directly.
    """
    js = list(judgments)
    if not js:
        raise ValidationError("cannot aggregate an empty judgment list")
    if method == "geometric":
        comps = [
            math.exp(math.fsum(math.log(getattr(j, f)) for j in js) / len(js))
            for f in ("l", "m", "u")
        ]
    elif method == "arithmetic":
        comps = [math.fsum(getattr(j, f) for j in js) / len(js) for f in ("l", "m", "u")]
    else:
        raise ValueError(f"unknown aggregation method {method!r}")
    return TriangularFuzzyNumber(*comps)
