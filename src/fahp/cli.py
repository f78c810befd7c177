"""Command-line interface.

Exit codes: 0 success, 1 internal error, 2 invalid input, 3 infeasible
judgments or undefined statistic, 4 oracle tolerance breach.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .composition import rank
from .documents import (
    ResultsDocument,
    StudyDocument,
    load_study,
    serialize_results,
    solve_study,
)
from .errors import (
    InfeasibleJudgmentsError,
    UndefinedStatisticError,
    ValidationError,
)
from .solver import ORACLE_LAMBDA_TOL, ORACLE_MAX_ITEMS, ORACLE_WEIGHT_TOL, oracle_solve

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_UNDEFINED = 3
EXIT_ORACLE = 4


def _timestamp() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _format_results(study: StudyDocument, doc: ResultsDocument) -> str:
    h = study.hierarchy
    labels = {n.id: n.label for n in h.walk()}
    lines = [f"study: {doc.study}"]
    for block, res in doc.blocks.items():
        lines.append("")
        lines.append(
            f"block {block} ({labels.get(block, block)}): "
            f"{'consistent' if res.consistent else 'inconsistent'}"
            f"{', clamped' if res.clamped else ''}"
        )
        lines.append(
            f"  {'item':<34} {'code':<6} {'weight':>10} {'rank':>4} {'lambda':>10}"
        )
        for item, pos in rank(res.weights).items():
            lam = f"{res.lambda_:.6g}" if pos == 1 else ""
            lines.append(
                f"  {labels.get(item, item):<34.34} {item:<6} "
                f"{res.weights[item]:>10.6g} {pos:>4} {lam:>10}"
            )
    lines.append("")
    lines.append("global ranking")
    lines.append(
        f"  {'category':<9} {'cat.weight':>10} {'item':<34} {'code':<6} "
        f"{'local':>10} {'global':>10} {'rank':>4}"
    )
    for row in doc.ranking.rows:
        lines.append(
            f"  {row.category:<9} {row.category_weight:>10.6g} "
            f"{labels.get(row.leaf, row.leaf):<34.34} {row.leaf:<6} "
            f"{row.local_weight:>10.6g} {row.global_weight:>10.6g} {row.rank:>4}"
        )
    return "\n".join(lines) + "\n"


def _write(path: str, text: str, kind: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {kind} file {path}: {exc}") from exc


def _check_stdout(text: str, what: str) -> None:
    """Raise ValidationError, naming standard output, its encoding and what
    text is, where that encoding cannot write text; a stream without an
    encoding (an in-memory one) takes any text. Every command checks its
    text before it writes anything."""
    encoding = getattr(sys.stdout, "encoding", None)
    if not encoding:
        return
    try:
        text.encode(encoding, getattr(sys.stdout, "errors", None) or "strict")
    except UnicodeEncodeError as exc:
        raise ValidationError(
            f"standard output's encoding {encoding!r} cannot write the "
            f"character {exc.object[exc.start]!a} of {what}"
        ) from None


def cmd_solve(args: argparse.Namespace) -> int:
    study = load_study(args.study)
    doc = solve_study(study, None if args.no_timestamp else _timestamp())
    table = _format_results(study, doc)
    _check_stdout(table, "the results table")
    if args.out:
        _write(args.out, serialize_results(doc), "results")
    sys.stdout.write(table)
    return EXIT_OK


def cmd_reproduce_paper(args: argparse.Namespace) -> int:
    # imported here so that the other subcommands do not load the module
    from .reproduce import build_report, format_report, report_to_dict

    report = build_report()
    if not report.identity_ok:
        raise RuntimeError(
            "published-figure identity check failed; embedded reference "
            "values are corrupt"
        )
    text = format_report(report)
    _check_stdout(text, "the paper report")
    if args.out:
        payload = json.dumps(report_to_dict(report), indent=2, ensure_ascii=False)
        _write(args.out, payload + "\n", "report")
    sys.stdout.write(text)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    study = load_study(args.study)
    for node in study.hierarchy.walk():
        if len(node.children) > ORACLE_MAX_ITEMS:
            raise ValidationError(
                f"block {node.id!r} has {len(node.children)} items; the oracle "
                f"handles at most {ORACLE_MAX_ITEMS}"
            )
    breaches = 0
    lines = []
    for block, fpp in solve_study(study).blocks.items():
        matrix = study.hierarchy.matrices[block]
        n = len(matrix.items)
        # the search's memory is flat in the step, but its time is not: it
        # grows with the lattice's lines, 4,753 for four items at 0.01, so
        # go no finer
        step = args.step if n < 4 else max(args.step, 0.01)
        grid = oracle_solve(matrix, step)
        lam_delta = abs(fpp.lambda_ - grid.lambda_)
        w_delta = max(
            abs(fpp.weights[item] - grid.weights[item]) for item in matrix.items
        )
        ok = lam_delta <= ORACLE_LAMBDA_TOL and w_delta <= ORACLE_WEIGHT_TOL
        if not ok:
            breaches += 1
        lines.append(
            f"block {block:<6} n={n} step {step:g}: "
            f"lambda {fpp.lambda_:.6g} vs {grid.lambda_:.6g} "
            f"(delta {lam_delta:.4f}), max weight delta {w_delta:.4f} "
            f"[{'ok' if ok else 'BREACH'}]"
        )
    lines.append(
        f"tolerances: lambda {ORACLE_LAMBDA_TOL}, weights {ORACLE_WEIGHT_TOL}"
    )
    text = "\n".join(lines) + "\n"
    _check_stdout(text, "the oracle report")
    sys.stdout.write(text)
    return EXIT_ORACLE if breaches else EXIT_OK


def cmd_delphi(args: argparse.Namespace) -> int:
    # delphi and alpha import the survey module here, so that the other
    # subcommands do not load it
    from .survey import delphi_round, read_ratings_csv, run_delphi

    rounds = [read_ratings_csv(p) for p in args.ratings]
    if args.rounds is not None and args.rounds != len(rounds):
        raise ValidationError(
            f"--rounds {args.rounds} does not match the {len(rounds)} ratings "
            "file(s) given"
        )
    # validate the round chain before printing anything
    final_accepted = run_delphi(rounds, threshold=args.threshold)
    lines = []
    for i, rnd in enumerate(rounds, start=1):
        accepted, deferred = delphi_round(rnd, args.threshold)
        lines.append(f"round {i} ({len(rnd.experts)} experts, threshold {args.threshold:g})")
        for item in rnd.items:
            frac = rnd.agreement_fraction(item)
            verdict = "accepted" if item in accepted else "deferred"
            lines.append(f"  {item:<12} agreement {frac:.6g}  {verdict}")
        lines.append(
            f"  -> {len(accepted)} accepted, {len(deferred)} deferred"
        )
    lines.append(
        f"accepted overall ({len(final_accepted)}): "
        + ", ".join(sorted(final_accepted))
    )
    text = "\n".join(lines) + "\n"
    _check_stdout(text, "the Delphi report")
    sys.stdout.write(text)
    return EXIT_OK


def cmd_alpha(args: argparse.Namespace) -> int:
    from .survey import cronbach_alpha, read_responses_csv

    responses = read_responses_csv(args.responses)
    alpha = cronbach_alpha(responses)
    text = (
        f"alpha = {alpha:.6g} ({len(responses.items)} items, "
        f"{len(responses.rows)} respondents)\n"
    )
    _check_stdout(text, "the alpha report")
    sys.stdout.write(text)
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, so every call of main reads its arguments the same way."""
    parser = argparse.ArgumentParser(
        prog="fahp",
        description=(
            "Fuzzy AHP priority weights from triangular pairwise judgments, "
            "plus Delphi screening and questionnaire reliability checks."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve", help="solve a study document and rank its alternatives"
    )
    p_solve.add_argument("study", help="path to a study JSON document")
    p_solve.add_argument("--out", help="write a results JSON document here")
    p_solve.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the generated-at stamp for byte-reproducible output",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_rep = sub.add_parser(
        "reproduce-paper",
        help=(
            "re-solve the bundled supply-chain study and report deviations "
            "from its published figures"
        ),
    )
    p_rep.add_argument("--out", help="write the deviation report as JSON here")
    p_rep.set_defaults(func=cmd_reproduce_paper)

    p_oracle = sub.add_parser(
        "oracle",
        help="cross-check every block of a study against the grid oracle",
    )
    p_oracle.add_argument("study", help="path to a study JSON document")
    p_oracle.add_argument(
        "--step",
        type=float,
        default=0.005,
        help=(
            "lattice step (default 0.005); four-item blocks are never "
            "enumerated finer than 0.01"
        ),
    )
    p_oracle.set_defaults(func=cmd_oracle)

    p_delphi = sub.add_parser(
        "delphi", help="run Delphi consensus rounds over ratings CSV files"
    )
    p_delphi.add_argument(
        "ratings",
        nargs="+",
        help="one CSV per round (header: item,expert,rating), in round order",
    )
    p_delphi.add_argument(
        "--threshold",
        type=float,
        default=0.75,
        help="agreement fraction needed to accept an item (default 0.75)",
    )
    p_delphi.add_argument(
        "--rounds",
        type=int,
        help="expected number of rounds; errors if the file count differs",
    )
    p_delphi.set_defaults(func=cmd_delphi)

    p_alpha = sub.add_parser(
        "alpha", help="Cronbach alpha of a questionnaire responses CSV"
    )
    p_alpha.add_argument(
        "responses",
        help="CSV with item ids in the first row, one respondent per row after",
    )
    p_alpha.set_defaults(func=cmd_alpha)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InfeasibleJudgmentsError, UndefinedStatisticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
