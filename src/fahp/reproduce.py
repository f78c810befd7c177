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

from dataclasses import dataclass
from typing import Any

from .composition import GlobalRanking, compose_global
from .documents import block_to_dict, bundled_study_path, load_study, solve_study
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


@dataclass(frozen=True)
class DeviationRow:
    block: str
    item: str  # empty for lambda rows
    published: float
    computed: float

    @property
    def delta(self) -> float:
        return abs(self.published - self.computed)


@dataclass(frozen=True)
class ReproduceReport:
    blocks: dict[str, SolveResult]
    local_rows: tuple[DeviationRow, ...]
    lambda_rows: tuple[DeviationRow, ...]
    global_rows: tuple[DeviationRow, ...]
    identity_rows: tuple[DeviationRow, ...]
    computed_ranking: GlobalRanking
    published_ranking: GlobalRanking

    @property
    def identity_max_delta(self) -> float:
        return max(r.delta for r in self.identity_rows)

    @property
    def identity_ok(self) -> bool:
        return self.identity_max_delta <= IDENTITY_TOL


def build_report() -> ReproduceReport:
    """Solve the bundled study and tabulate deviations from the published run."""
    results = solve_study(load_study(bundled_study_path()))
    blocks = results.blocks
    local_rows = tuple(
        DeviationRow(
            block=block,
            item=item,
            published=published,
            computed=blocks[block].weights[item],
        )
        for block, weights in PUBLISHED_LOCAL_WEIGHTS.items()
        for item, published in weights.items()
    )
    lambda_rows = tuple(
        DeviationRow(
            block=block,
            item="",
            published=published,
            computed=blocks[block].lambda_,
        )
        for block, published in PUBLISHED_LAMBDAS.items()
    )

    published_ranking = compose_global(
        category_weights=PUBLISHED_CATEGORY_WEIGHTS,
        local_weights={
            c: PUBLISHED_LOCAL_WEIGHTS[c] for c in PUBLISHED_CATEGORY_WEIGHTS
        },
    )

    computed_globals = results.ranking.as_dict()
    global_rows = tuple(
        DeviationRow(
            block="",
            item=leaf,
            published=published,
            computed=computed_globals[leaf],
        )
        for leaf, published in PUBLISHED_GLOBAL_WEIGHTS.items()
    )
    identity_globals = published_ranking.as_dict()
    identity_rows = tuple(
        DeviationRow(
            block="",
            item=leaf,
            published=published,
            computed=identity_globals[leaf],
        )
        for leaf, published in PUBLISHED_GLOBAL_WEIGHTS.items()
    )
    return ReproduceReport(
        blocks=blocks,
        local_rows=local_rows,
        lambda_rows=lambda_rows,
        global_rows=global_rows,
        identity_rows=identity_rows,
        computed_ranking=results.ranking,
        published_ranking=published_ranking,
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
        "computed_ranking": [
            {
                "leaf": r.leaf,
                "category": r.category,
                "global_weight": r.global_weight,
                "rank": r.rank,
            }
            for r in report.computed_ranking.rows
        ],
    }


def format_report(report: ReproduceReport) -> str:
    """Human-readable deviation tables."""
    lines: list[str] = []
    lines.append("Reproduction of the published supply-chain challenge ranking")
    lines.append("")
    lines.append(
        "Published block weights are compared against this solver's output."
    )
    lines.append(
        "Differences are expected and reported, not asserted away: the"
    )
    lines.append(
        "published judgments do not admit the published weights (negative-"
    )
    lines.append("lambda blocks), so deltas below measure that gap.")
    for block, lam_pub in PUBLISHED_LAMBDAS.items():
        res = report.blocks[block]
        lines.append("")
        lines.append(
            f"block {block}  lambda published {lam_pub:.6g}  computed "
            f"{res.lambda_:.6g}  (computed sign: "
            f"{'nonnegative' if res.lambda_ >= 0 else 'negative'})"
        )
        lines.append(f"  {'item':<6} {'published':>12} {'computed':>12} {'delta':>12}")
        for row in report.local_rows:
            if row.block == block:
                lines.append(
                    f"  {row.item:<6} {row.published:>12.6f} "
                    f"{row.computed:>12.6f} {row.delta:>12.6f}"
                )
    lines.append("")
    lines.append("global weights (published vs composed from computed blocks)")
    lines.append(f"  {'leaf':<6} {'published':>12} {'computed':>12} {'delta':>12}")
    for row in report.global_rows:
        lines.append(
            f"  {row.item:<6} {row.published:>12.6f} "
            f"{row.computed:>12.6f} {row.delta:>12.6f}"
        )
    lines.append("")
    lines.append(
        "identity check: published category x published local = published global"
    )
    lines.append(
        f"  max delta {report.identity_max_delta:.2e} within {IDENTITY_TOL:.0e}: "
        f"{'ok' if report.identity_ok else 'FAILED'}"
    )
    return "\n".join(lines) + "\n"
