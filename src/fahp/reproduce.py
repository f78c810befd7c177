"""Deviation harness for the bundled supply-chain study.

Re-solves the four published comparison blocks and reports, value by value,
how far this solver's output sits from the originally published figures.
Equality is deliberately not asserted: the published block weights are not
derivable from the published judgment matrices (three of the four blocks
are mutually contradictory at any nonnegative lambda, and the two-item
block admits a closed-form answer that differs from the printed one), so
the honest reproduction artifact is the deviation table itself.

What is checked, and does hold: composing the published block weights
multiplicatively reproduces the published global weights and ranking to
the precision they were printed with.
"""

from __future__ import annotations

from typing import Any, Mapping

from ._record import record
from .composition import GlobalRanking, compose_global
from .documents import (
    block_to_dict,
    bundled_study_path,
    load_study,
    ranking_to_list,
    solve_study,
)
from .solver import SolveResult

#: Weights of the three categories as originally published.
PUBLISHED_CATEGORY_WEIGHTS = {"W1": 0.373887, "W2": 0.281210, "W3": 0.347111}

#: Within-block weights as originally published, keyed by block.
PUBLISHED_LOCAL_WEIGHTS: dict[str, dict[str, float]] = {
    "goal": PUBLISHED_CATEGORY_WEIGHTS,
    "W1": {"W11": 0.258811, "W12": 0.165998, "W13": 0.387849, "W14": 0.194306},
    "W2": {"W21": 0.271194, "W22": 0.209380, "W23": 0.268777, "W24": 0.256814},
    "W3": {"W31": 0.363775, "W32": 0.636225},
}

#: Consistency levels reported alongside each published block.
PUBLISHED_LAMBDAS = {"goal": 0.4374, "W1": 0.3214, "W2": 0.2541, "W3": 0.4251}

#: Published global weights of the ten challenges.
PUBLISHED_GLOBAL_WEIGHTS = {
    "W11": 0.096766,
    "W12": 0.062065,
    "W13": 0.145012,
    "W14": 0.072648,
    "W21": 0.076263,
    "W22": 0.05888,
    "W23": 0.075583,
    "W24": 0.072219,
    "W31": 0.12627,
    "W32": 0.220841,
}

#: Tolerance for the multiplicative identity over published figures; the
#: published values carry six decimals, so products agree to ~1e-6.
IDENTITY_TOL = 5e-6


@record
class DeviationRow:
    block: str
    item: str  # empty for lambda rows
    published: float
    computed: float

    @property
    def delta(self) -> float:
        return abs(self.published - self.computed)


@record
class ReproduceReport:
    blocks: dict[str, SolveResult]
    local_rows: tuple[DeviationRow, ...]
    lambda_rows: tuple[DeviationRow, ...]
    global_rows: tuple[DeviationRow, ...]
    identity_rows: tuple[DeviationRow, ...]
    computed_ranking: GlobalRanking

    @property
    def identity_max_delta(self) -> float:
        return max(r.delta for r in self.identity_rows)

    @property
    def identity_ok(self) -> bool:
        return self.identity_max_delta <= IDENTITY_TOL


def _deviations(
    published: Mapping[str, float], computed: Mapping[str, float], block: str = ""
) -> tuple[DeviationRow, ...]:
    """One row per published item, against the computed value of that item."""
    return tuple(
        DeviationRow(block, item, value, computed[item])
        for item, value in published.items()
    )


def build_report() -> ReproduceReport:
    """Solve the bundled study and tabulate deviations from the published run."""
    results = solve_study(load_study(bundled_study_path()))
    blocks = results.blocks
    identity = compose_global(
        category_weights=PUBLISHED_CATEGORY_WEIGHTS,
        local_weights={
            c: PUBLISHED_LOCAL_WEIGHTS[c] for c in PUBLISHED_CATEGORY_WEIGHTS
        },
    )
    return ReproduceReport(
        blocks=blocks,
        local_rows=tuple(
            row
            for block, weights in PUBLISHED_LOCAL_WEIGHTS.items()
            for row in _deviations(weights, blocks[block].weights, block)
        ),
        lambda_rows=tuple(
            DeviationRow(block, "", published, blocks[block].lambda_)
            for block, published in PUBLISHED_LAMBDAS.items()
        ),
        global_rows=_deviations(PUBLISHED_GLOBAL_WEIGHTS, results.ranking.as_dict()),
        identity_rows=_deviations(PUBLISHED_GLOBAL_WEIGHTS, identity.as_dict()),
        computed_ranking=results.ranking,
    )


def report_to_dict(report: ReproduceReport) -> dict[str, Any]:
    def dev(r: DeviationRow) -> dict[str, Any]:
        out: dict[str, Any] = {}
        if r.block:
            out["block"] = r.block
        if r.item:
            out["item"] = r.item
        out.update(published=r.published, computed=r.computed, delta=r.delta)
        return out

    return {
        "blocks": {block: block_to_dict(res) for block, res in report.blocks.items()},
        "local_weight_rows": [dev(r) for r in report.local_rows],
        "lambda_rows": [dev(r) for r in report.lambda_rows],
        "global_rows": [dev(r) for r in report.global_rows],
        "identity": {
            "rows": [dev(r) for r in report.identity_rows],
            "max_delta": report.identity_max_delta,
            "tolerance": IDENTITY_TOL,
            "ok": report.identity_ok,
        },
        "computed_ranking": ranking_to_list(report.computed_ranking),
    }


def _format_row(row: DeviationRow) -> str:
    return (
        f"  {row.item:<6} {row.published:>12.6f} "
        f"{row.computed:>12.6f} {row.delta:>12.6f}"
    )


def format_report(report: ReproduceReport) -> str:
    """Human-readable deviation tables."""
    lines = [
        "Reproduction of the published supply-chain challenge ranking",
        "",
        "Published block weights are compared against this solver's output.",
        "Differences are expected and reported, not asserted away: the",
        "published judgments do not admit the published weights (negative-",
        "lambda blocks), so deltas below measure that gap.",
    ]
    for lam in report.lambda_rows:
        lines += [
            "",
            f"block {lam.block}  lambda published {lam.published:.6g}  computed "
            f"{lam.computed:.6g}  (computed sign: "
            f"{'nonnegative' if lam.computed >= 0 else 'negative'})",
            f"  {'item':<6} {'published':>12} {'computed':>12} {'delta':>12}",
            *(_format_row(r) for r in report.local_rows if r.block == lam.block),
        ]
    lines += [
        "",
        "global weights (published vs composed from computed blocks)",
        f"  {'leaf':<6} {'published':>12} {'computed':>12} {'delta':>12}",
        *(_format_row(r) for r in report.global_rows),
        "",
        "identity check: published category x published local = published global",
        f"  max delta {report.identity_max_delta:.2e} within {IDENTITY_TOL:.0e}: "
        f"{'ok' if report.identity_ok else 'FAILED'}",
    ]
    return "\n".join(lines) + "\n"
