"""Solver gates over two seeded block populations.

    PYTHONPATH=src python tests/gates.py [--out RUN.json] [--compare OTHER.json]
        [--expect tests/fixtures/gates_totals.json]

The sweep: for each rng seed 11-68, 300 blocks drawn as SWEEP_BLOCKS in
test_solver_invariants describes, each solved as drawn and with its items
reordered (34,800 solves). The contradictory blocks: 1,500 blocks drawn by
_contradictory_block from rng seed 101. Prints the exceptions, the solves
whose lambda_at is -inf, the infeasible verdicts, the negative-cycle
searches and leximin stages of the solver, the largest search and stage
counts of one solve, and the largest lambda and weight gaps between the two
item orders; the run fails when the weights of the two orders differ by
more than ORDER_WEIGHT_TOL. --out writes every solve's outcome, the totals
and the largest counts as JSON; --compare reports, against another run's
file, the largest lambda and weight differences, the largest relative
lambda shortfall and excess, the infeasible verdicts that differ (in kind
or in the pairs they name), the number of solves whose outcome differs in
any way (its kind, lambda or any weight, the pairs an infeasible verdict
names, or an exception's message), and the search and stage differences;
the run fails when any outcome, or the search or stage total, differs.
--expect checks the totals against a committed file: the run fails when
its searches or stages exceed the file's, or its solve or infeasible
counts differ from them.

Not collected by pytest (the name does not start with test_); it takes
about 20 seconds.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from fahp import (  # noqa: E402
    ComparisonMatrix,
    InfeasibleJudgmentsError,
    lambda_at,
    solve_fpp,
    solver,
)
from test_solver_invariants import _contradictory_block, _random_block  # noqa: E402

SWEEP_SEEDS = range(11, 69)
SWEEP_BLOCKS = 300
CONTRADICTORY_SEED = 101
CONTRADICTORY_BLOCKS = 1500
# Totals that --expect bounds from above; every other total must match.
_CEILINGS = ("searches", "stages")
# The leximin weights are unique, so the two item orders of a block must
# give the same weights up to round-off.
ORDER_WEIGHT_TOL = 1e-12


def _population():
    """(key, block) for every solve. A reordered block keeps the item names,
    so both orders' weights compare item by item."""
    for seed in SWEEP_SEEDS:
        rng = np.random.default_rng(seed)
        for k in range(SWEEP_BLOCKS):
            n = int(rng.integers(2, 11))
            block = _random_block(rng, n)
            perm = rng.permutation(n)
            reordered = ComparisonMatrix(
                parent=block.parent,
                items=tuple(block.items[i] for i in perm),
                judgments=block.judgments,
            )
            yield f"sweep {seed} {k} a", block
            yield f"sweep {seed} {k} b", reordered
    rng = np.random.default_rng(CONTRADICTORY_SEED)
    for k in range(CONTRADICTORY_BLOCKS):
        yield f"contradictory {CONTRADICTORY_SEED} {k}", _contradictory_block(rng)


def run() -> tuple[dict, collections.Counter, dict]:
    """Solve the population: (outcome per key, totals, the largest search
    and stage counts of one solve as [count, key])."""
    totals = collections.Counter()
    most = {"searches": [0, ""], "stages": [0, ""]}
    current = [""]
    leximin = solver._leximin

    def counted(*args, **kwargs):
        path = leximin(*args, **kwargs)
        for key, count in (("searches", path.searches), ("stages", len(path.levels))):
            totals[key] += count
            if count > most[key][0]:
                most[key] = [count, current[0]]
        return path

    solver._leximin = counted
    outcomes = {}
    try:
        for key, block in _population():
            current[0] = key
            try:
                res = solve_fpp(block)
            except InfeasibleJudgmentsError as exc:
                totals["infeasible"] += 1
                outcomes[key] = {"infeasible": [list(p) for p in exc.pairs]}
                continue
            except Exception as exc:  # noqa: BLE001 - every exception is a finding
                totals["exceptions"] += 1
                outcomes[key] = {"exception": f"{type(exc).__name__}: {exc}"}
                print(f"{key}: {type(exc).__name__}: {exc}")
                continue
            if lambda_at(block, res.weights) == -math.inf:
                totals["minus_inf"] += 1
                print(f"{key}: lambda_at is -inf")
            outcomes[key] = {"lambda": res.lambda_, "weights": res.weights}
    finally:
        solver._leximin = leximin
    return outcomes, totals, most


def _gaps(outcomes: dict, other: dict, pairs) -> tuple[float, float, list[str]]:
    """Largest lambda and weight differences between outcomes[a] and
    other[b] over `pairs` of keys, and the keys whose outcome kinds differ."""
    lam = weight = 0.0
    differ = []
    for a, b in pairs:
        x, y = outcomes[a], other[b]
        if x.keys() != y.keys() or ("infeasible" in x and x != y):
            differ.append(a)
        elif "lambda" in x:
            lam = max(lam, abs(x["lambda"] - y["lambda"]))
            weight = max(weight, max(abs(x["weights"][i] - y["weights"][i])
                                     for i in x["weights"]))
    return lam, weight, differ


def _relative_lambda(outcomes: dict, other: dict) -> tuple[float, float]:
    """The largest relative shortfall and excess of each solve's lambda
    against the other run's, (theirs - ours) / max(1, |theirs|) and (ours -
    theirs) / max(1, |theirs|), over the keys both runs solved."""
    below = above = 0.0
    for key, x in outcomes.items():
        y = other.get(key, {})
        if "lambda" in x and "lambda" in y:
            scale = max(1.0, abs(y["lambda"]))
            below = max(below, (y["lambda"] - x["lambda"]) / scale)
            above = max(above, (x["lambda"] - y["lambda"]) / scale)
    return below, above


def _differing(outcomes: dict, other: dict) -> list[str]:
    """The keys whose outcome differs in any way between two runs, bit for
    bit, including a key only one run has."""
    return sorted(k for k in outcomes.keys() | other.keys() if outcomes.get(k) != other.get(k))


def _meets(totals: collections.Counter, solves: int, expected: dict) -> bool:
    """Whether the run's counts meet the expected ones: at most as many
    searches and stages, and the same number of solves and infeasible
    verdicts. Prints each count that does not."""
    found = collections.Counter(totals, solves=solves)
    misses = [
        f"{key} {found[key]} (expected {'at most ' if key in _CEILINGS else ''}{value})"
        for key, value in expected.items()
        if (found[key] > value if key in _CEILINGS else found[key] != value)
    ]
    print(f"against the expected totals: {'; '.join(misses) or 'met'}")
    return not misses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write every outcome here")
    parser.add_argument("--compare", type=Path, help="an earlier run's --out file")
    parser.add_argument("--expect", type=Path, help="committed totals to check")
    args = parser.parse_args(argv)
    outcomes, totals, most = run()
    print(f"solves {len(outcomes)}, exceptions {totals['exceptions']}, "
          f"lambda_at -inf {totals['minus_inf']}, infeasible {totals['infeasible']}")
    print(f"searches {totals['searches']}, stages {totals['stages']}, "
          "largest in one solve: "
          + ", ".join(f"{key} {count} ({where})" for key, (count, where) in most.items()))
    orders = [(k, k[:-1] + "b") for k in outcomes if k.endswith(" a")]
    lam, weight, differ = _gaps(outcomes, outcomes, orders)
    print(f"between item orders: lambda {lam:.3g}, weights {weight:.3g} "
          f"(at most {ORDER_WEIGHT_TOL:g}), {len(differ)} verdicts differ")
    if args.out:
        args.out.write_text(json.dumps(
            {"totals": totals, "most": most, "outcomes": outcomes}
        ))
    failed = bool(totals["exceptions"] or totals["minus_inf"] or differ)
    failed |= weight > ORDER_WEIGHT_TOL
    if args.compare:
        other = json.loads(args.compare.read_text())
        pairs = [(k, k) for k in outcomes if k in other["outcomes"]]
        lam, weight, verdicts = _gaps(outcomes, other["outcomes"], pairs)
        below, above = _relative_lambda(outcomes, other["outcomes"])
        differ = _differing(outcomes, other["outcomes"])
        print(f"against {args.compare}: lambda {lam:.3g}, weights {weight:.3g}, "
              f"relative lambda shortfall {below:.3g} and excess {above:.3g}, "
              f"{len(verdicts)} verdicts differ, "
              f"{len(differ)} outcomes differ{': ' if differ else ''}"
              f"{', '.join(differ[:10])}")
        theirs = collections.Counter(other["totals"])
        print(f"searches {totals['searches'] - theirs['searches']:+d}, "
              f"stages {totals['stages'] - theirs['stages']:+d} "
              f"(theirs {theirs['searches']} and {theirs['stages']})")
        failed |= bool(differ) or any(totals[k] != theirs[k] for k in _CEILINGS)
    if args.expect:
        failed |= not _meets(totals, len(outcomes), json.loads(args.expect.read_text()))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
