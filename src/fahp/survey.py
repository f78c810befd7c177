"""Screening arithmetic for the survey stages that precede weighting.

Covers the three gates a study of this kind runs before any pairwise
comparison happens: appraisal scoring of candidate source papers, Delphi
consensus rounds over candidate items, and internal-consistency checking
of the final questionnaire.
"""

from __future__ import annotations

import math
from statistics import variance

from ._record import record
from .errors import UndefinedStatisticError, ValidationError

#: Delphi ratings come from a five-point agreement scale, stored as 0..4.
DELPHI_MIN, DELPHI_MAX = 0, 4
#: Ratings counted as agreement when measuring consensus.
DELPHI_AGREE = (3, 4)

_CASP_CRITERIA = 10


@record
class CaspScore:
    """Ten appraisal criteria for one candidate paper, each scored 1..5."""

    paper: str
    criteria: tuple[int, ...]

    def __post_init__(self):
        if len(self.criteria) != _CASP_CRITERIA:
            raise ValidationError(
                f"appraisal for {self.paper!r} needs {_CASP_CRITERIA} criteria, "
                f"got {len(self.criteria)}"
            )
        if any(not (1 <= c <= 5) for c in self.criteria):
            raise ValidationError(
                f"appraisal scores for {self.paper!r} must lie in 1..5"
            )


def casp_pass(score: CaspScore) -> bool:
    """Whether a paper clears appraisal: mean criterion score strictly above 4."""
    # mean > 4.0 over 10 integer criteria, i.e. total > 40; exact in ints
    return sum(score.criteria) > 4 * _CASP_CRITERIA


@record
class DelphiRatings:
    """One Delphi round: every expert rates every item on the 0..4 scale.

    ``ratings`` is row-per-item, column-per-expert.
    """

    items: tuple[str, ...]
    experts: tuple[str, ...]
    ratings: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.items:
            raise ValidationError("a Delphi round needs at least one item")
        if not self.experts:
            raise ValidationError("a Delphi round needs at least one expert")
        if len(set(self.items)) != len(self.items):
            raise ValidationError("duplicate item ids in Delphi round")
        if len(set(self.experts)) != len(self.experts):
            raise ValidationError("duplicate expert ids in Delphi round")
        if len(self.ratings) != len(self.items):
            raise ValidationError("ratings must have one row per item")
        for item, row in zip(self.items, self.ratings):
            if len(row) != len(self.experts):
                raise ValidationError(
                    f"item {item!r} has {len(row)} ratings for "
                    f"{len(self.experts)} experts"
                )
            if any(not (DELPHI_MIN <= r <= DELPHI_MAX) for r in row):
                raise ValidationError(
                    f"item {item!r} has a rating outside {DELPHI_MIN}..{DELPHI_MAX}"
                )

    def agreement_fraction(self, item: str) -> float:
        """Share of experts rating the item 3 or 4."""
        row = self.ratings[self.items.index(item)]
        return sum(1 for r in row if r in DELPHI_AGREE) / len(self.experts)


def delphi_round(
    ratings: DelphiRatings, threshold: float = 0.75
) -> tuple[frozenset[str], frozenset[str]]:
    """Split one round's items into (accepted, deferred) by consensus.

    An item is accepted when the fraction of experts rating it 3 or 4
    reaches the threshold (inclusive boundary).
    """
    if not (0 < threshold <= 1):
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    accepted, deferred = set(), set()
    for item in ratings.items:
        # small slack keeps exact boundaries (e.g. 3 of 4 at 0.75) inclusive
        # under float rounding
        if ratings.agreement_fraction(item) >= threshold - 1e-12:
            accepted.add(item)
        else:
            deferred.add(item)
    return frozenset(accepted), frozenset(deferred)


def run_delphi(
    rounds: list[DelphiRatings] | tuple[DelphiRatings, ...],
    threshold: float = 0.75,
) -> frozenset[str]:
    """Run successive Delphi rounds and return the union of accepted items.

    Every round after the first must rate exactly the items deferred by the
    previous round.
    """
    if not rounds:
        raise ValidationError("at least one Delphi round is required")
    accepted_all: set[str] = set()
    expected: set[str] | None = None
    for i, rnd in enumerate(rounds):
        if expected is not None and set(rnd.items) != expected:
            missing = sorted(expected - set(rnd.items))
            extra = sorted(set(rnd.items) - expected)
            raise ValidationError(
                f"round {i + 1} must rate exactly the items deferred by round {i}"
                + (f"; missing {missing}" if missing else "")
                + (f"; unexpected {extra}" if extra else "")
            )
        accepted, deferred = delphi_round(rnd, threshold)
        accepted_all |= accepted
        expected = set(deferred)
    return frozenset(accepted_all)


@record
class ItemResponses:
    """Questionnaire responses: one row per respondent, one column per item."""

    items: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValidationError("reliability needs at least two items")
        if len(set(self.items)) != len(self.items):
            raise ValidationError("duplicate item ids in responses")
        if len(self.rows) < 2:
            raise ValidationError("reliability needs at least two respondents")
        for i, row in enumerate(self.rows):
            if len(row) != len(self.items):
                raise ValidationError(
                    f"respondent row {i + 1} has {len(row)} values for "
                    f"{len(self.items)} items"
                )


def cronbach_alpha(responses: ItemResponses) -> float:
    """Internal-consistency coefficient alpha of a questionnaire.

    alpha = k/(k-1) * (1 - sum(item variances) / variance(total score)),
    with sample variances.
    """
    k = len(responses.items)
    item_vars = math.fsum(variance(column) for column in zip(*responses.rows))
    total_var = variance([math.fsum(row) for row in responses.rows])
    if total_var <= 0.0:
        raise UndefinedStatisticError(
            "total-score variance is zero; alpha is undefined for these responses"
        )
    return k / (k - 1) * (1.0 - item_vars / total_var)
