"""Steadiness check: repeat each workload and report the spread of every metric.

    python3 perfbench/steady.py [--seeds 1-10] [--traced 3]

Run from the root of a checkout. For every workload of BENCHMARK.json it
runs the benchmark command once per seed with --trace 0, then --traced of
those seeds again with --trace 1. It prints, per end-to-end metric, the
median, the quartiles (statistics.quantiles, n=4) and the interquartile
spread as a share of the median next to the metric's bound, and per
per-layer metric the same figures without a bound. It fails (exit 1) when:

- the share of failed operations differs between any two runs;
- a count that must repeat (solver.probes_per_block, simplex.lp_calls,
  solver.oracle_points) differs between any two traced runs;
- a run prints correct: false or exits non-zero;
- the spread of an end-to-end metric exceeds its bound.

The bounds in BENCHMARK.json were set from this command's output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path.cwd()
EXACT_COUNTS = ("solver.probes_per_block", "simplex.lp_calls", "solver.oracle_points")


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [
        *bench["command"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(
    name: str, unit: str, values: list[float], bound: float | None
) -> tuple[str, bool]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
    spread = (q3 - q1) / med if med else float("nan")
    ok = bound is None or spread <= bound
    limit = "" if bound is None else f"  bound {bound:.3f}{'' if ok else '  EXCEEDED'}"
    line = (
        f"  {name:<26} {unit:<6} median {med:<12.6g} q1 {q1:<12.6g} "
        f"q3 {q3:<12.6g} spread {spread:.4f}{limit}"
    )
    return line, ok


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--traced", type=int, default=3, help="traced runs per workload")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seeds_of(args.seeds)
    good = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run_once(bench, workload, seed, 0))
            print(f"{workload} seed {seed}: failed {runs[-1]['failed']}/"
                  f"{runs[-1]['attempted']}", flush=True)
        traced = [run_once(bench, workload, s, 1) for s in seeds[: args.traced]]
        print(f"{workload}: {len(runs)} runs, {len(traced)} traced")
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs + traced}
        if len(shares) != 1:
            print(f"  FAILED SHARE DIFFERS: {sorted(map(str, shares))}")
            good = False
        else:
            print(f"  failed share {shares.pop()} in every run")
        if not all(r["correct"] for r in runs + traced):
            print("  A RUN WAS NOT CORRECT")
            good = False
        print(
            f"  attempted {sum(r['attempted'] for r in runs)}, "
            f"failed {sum(r['failed'] for r in runs)} over the untraced runs"
        )
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            line, ok = summarize(name, runs[0]["metrics"][name]["unit"], values, bounds[name])
            print(line)
            good &= ok
        for name, metric in traced[0]["metrics"].items() if traced else ():
            values = [r["metrics"][name]["value"] for r in traced]
            if name in EXACT_COUNTS and len(set(values)) != 1:
                print(f"  COUNT {name} DIFFERS: {values}")
                good = False
            print(summarize(name, metric["unit"], values, None)[0])
        sys.stdout.flush()
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
