"""Rebuild known_faults.json: solve every pool entry once and record the
ones the program fails on.

    python3 perfbench/screen.py

Run from the repository root. It screens every pool in gen.POOLS. An
entry is recorded when solve_fpp raises, when its output fails the checks
in check.py, or, for the "oracle" pool, when the grid oracle disagrees with
the solver beyond half the documented tolerances. The benchmark only reads
the file. The study documents under reproducers/, one excluded entry per
kind of fault, run in every pass of blocks_large; this script does not
write them.

known_faults.json is frozen benchmark data: which entries a seed draws
depends on it, so rebuilding it changes the inputs of every run. A change
to the program that is measured against a baseline must not rebuild it,
even when it mends a fault. A rebuild is a change of the benchmark of its
own, and the baseline has to be measured again after it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import check  # noqa: E402
import gen  # noqa: E402
from fahp import ORACLE_LAMBDA_TOL, ORACLE_WEIGHT_TOL, oracle_solve, solve_fpp  # noqa: E402
from worker import matrix_of  # noqa: E402


# Oracle-pool entries must agree within this share of the documented
# tolerances, so that a small legitimate change in the solver or the oracle
# cannot flip the verdict of `fahp oracle` on a seeded study.
ORACLE_MARGIN = 0.5


def screen_entry(kind: str, block: dict) -> str | None:
    mat = matrix_of(block)
    try:
        res = solve_fpp(mat)
    except Exception as exc:  # a fault of the program, recorded as such
        return f"{type(exc).__name__}: {exc}"
    problems = check.check_block(block, res.weights, res.lambda_)
    if problems:
        return "; ".join(problems)
    if kind == "oracle":
        step = 0.005 if len(block["items"]) < 4 else 0.01
        grid = oracle_solve(mat, step)
        lam_delta = abs(res.lambda_ - grid.lambda_)
        w_delta = max(abs(res.weights[i] - grid.weights[i]) for i in block["items"])
        if (
            lam_delta > ORACLE_MARGIN * ORACLE_LAMBDA_TOL
            or w_delta > ORACLE_MARGIN * ORACLE_WEIGHT_TOL
        ):
            return (
                f"oracle disagrees beyond half its tolerance (lambda delta "
                f"{lam_delta:.4f}, weight delta {w_delta:.4f})"
            )
    return None


def main() -> int:
    data = {"excluded": {}, "pool_seed": gen.POOL_SEED}
    for kind, (sizes, count, _) in gen.POOLS.items():
        for n in sizes:
            t0 = time.perf_counter()
            found = {}
            for i in range(count):
                reason = screen_entry(kind, gen.pool_block(kind, n, i))
                if reason:
                    found[str(i)] = reason
            data["excluded"][f"{kind}/{n}"] = found
            print(
                f"{kind}/{n}: {len(found)} of {count} excluded "
                f"({time.perf_counter() - t0:.1f} s)",
                flush=True,
            )
    text = json.dumps(data, indent=1, sort_keys=True) + "\n"
    (HERE / "known_faults.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
