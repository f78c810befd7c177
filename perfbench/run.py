"""Benchmark entry point.

    python3 perfbench/run.py --workload {paper_cli,blocks_large,studies_small}
        --seed N --seconds T --trace {0,1}

Run from the root of a checkout that holds src/fahp. Set-up runs
SETUP_REPEATS times, each in a fresh worker process (worker.py); the last
worker goes on to run whole passes of the workload for at least T seconds.
Afterwards this process checks every output with check.py and prints, as the
last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import check  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
WORKER_GRACE_S = 150.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def start_worker(args, mode: str, out: Path) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for READY; returns it with its set-up time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--mode", mode,
            "--out", str(out),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        reap(proc, 10.0)
        raise RuntimeError(f"worker set-up failed (exit {proc.returncode})")
    return proc, setup


def reap(proc: subprocess.Popen, timeout: float):
    """Wait for a worker to exit, killing it after `timeout` seconds, and
    return its resource usage."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            deadline = math.inf
        time.sleep(0.02)


# --- correctness ----------------------------------------------------------


def bundled_blocks() -> dict[str, dict]:
    """The bundled study's blocks, read straight from its JSON file."""
    doc = json.loads(
        (ROOT / "src/fahp/data/supply_chain_study.json").read_text(encoding="utf-8")
    )
    children = {}

    def walk(node):
        if node.get("children"):
            children[node["id"]] = [c["id"] for c in node["children"]]
            for c in node["children"]:
                walk(c)

    walk(doc["hierarchy"])
    blocks = {}
    for parent, entries in doc["matrices"].items():
        items = children[parent]
        blocks[parent] = {
            "items": items,
            "judgments": [[e["row"], e["col"], *e["judgment"]] for e in entries],
            "consistent": len(items) == 2,
            "latent": None,
        }
    return blocks


def check_results_text(text: str | None, blocks: dict[str, dict], cats) -> list[str]:
    """Problems with a `solve --out` results document for the given blocks."""
    if text is None:
        return ["no results document was written"]
    doc = json.loads(text)
    problems = []
    for parent, block in blocks.items():
        res = doc["blocks"][parent]
        problems += [f"{parent}: {p}" for p in check.check_block(block, res["weights"], res["lambda"])]
    goal = doc["blocks"]["goal"]["weights"]
    rows = doc["ranking"]
    leaves = {leaf: cat for cat in cats for leaf in blocks[cat]["items"]}
    if sorted(r["leaf"] for r in rows) != sorted(leaves):
        problems.append("ranking does not list every leaf once")
        return problems
    for r in rows:
        cat = leaves[r["leaf"]]
        if r["category"] != cat or r["category_weight"] != goal[cat]:
            problems.append(f"{r['leaf']}: wrong category or category weight")
        if r["local_weight"] != doc["blocks"][cat]["weights"][r["leaf"]]:
            problems.append(f"{r['leaf']}: local weight differs from its block")
        product = r["category_weight"] * r["local_weight"]
        if abs(r["global_weight"] - product) > check.PRODUCT_REL_TOL * product:
            problems.append(f"{r['leaf']}: global weight is not category x local")
    globals_ = [r["global_weight"] for r in rows]
    if [r["rank"] for r in rows] != list(range(1, len(rows) + 1)) or any(
        a < b for a, b in zip(globals_, globals_[1:])
    ):
        problems.append("ranks are not ordered by global weight")
    if not round_trips(text):
        problems.append("parse_results(serialize_results(doc)) does not round-trip")
    return problems


def round_trips(text: str) -> bool:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(1, str(ROOT / "src"))
    from fahp import parse_results, serialize_results

    return serialize_results(parse_results(text)) == text


def check_outputs(workload: str, seed: int, outputs: dict) -> dict[str, list[str]]:
    """Problems per operation name, judged on each op's first output."""
    problems: dict[str, list[str]] = {}
    if workload == "blocks_large":
        for k, block in enumerate(workloads.large_blocks(seed)):
            out = outputs[f"block{k:02d}"]
            if "error" in out:
                problems[f"block{k:02d}"] = [f"{block['pool']}: {out['error']}"]
            else:
                problems[f"block{k:02d}"] = check.check_block(
                    block, out["weights"], out["lambda"]
                )
    elif workload == "studies_small":
        for k, study in enumerate(workloads.small_studies(seed)):
            out = outputs[f"study{k:02d}"]
            found = [] if out["exit"] == 0 else [f"exit {out['exit']}: {out['stdout'][-300:]}"]
            if not found:
                found = check_results_text(out["out"], study["blocks"], study["categories"])
            problems[f"study{k:02d}"] = found
    else:
        blocks = bundled_blocks()
        solve, rep, orc = outputs["solve"], outputs["reproduce"], outputs["oracle"]
        found = [] if solve["exit"] == 0 else [f"exit {solve['exit']}"]
        if not found:
            cats = blocks["goal"]["items"]
            found = check_results_text(solve["out"], blocks, cats)
        problems["solve"] = found
        found = [] if rep["exit"] == 0 else [f"exit {rep['exit']}"]
        if not found:
            report = json.loads(rep["out"])
            if report["identity"]["ok"] is not True:
                found.append("identity check not ok")
            if solve["exit"] == 0:
                solved = json.loads(solve["out"])["blocks"]
                for b, res in report["blocks"].items():
                    if res["lambda"] != solved[b]["lambda"]:
                        found.append(f"block {b}: lambda differs from `solve`")
        problems["reproduce"] = found
        lines = [ln for ln in orc["stdout"].splitlines() if ln.startswith("block ")]
        n_blocks = len(workloads.ORACLE_SHAPE) + 1
        found = [] if orc["exit"] == 0 else [f"exit {orc['exit']}"]
        if len(lines) != n_blocks or not all(ln.endswith("[ok]") for ln in lines):
            found.append(f"oracle did not report [ok] on all {n_blocks} blocks")
        problems["oracle"] = found
    return problems


# --- metrics --------------------------------------------------------------


def segment_speeds(result: dict) -> list[float]:
    """Per segment of operations, the host's slowdown against the reference:
    the mean of the kernel times measured just before and after it, over
    calib.REFERENCE_S."""
    ref = result["reference_s"]
    return [(a + b) / 2 / calib.REFERENCE_S for a, b in zip(ref, ref[1:])]


def end_to_end(result: dict, ok: list[bool], setups: list[float], rss_kb: int) -> dict:
    """Time metrics at reference host speed (calib.py)."""
    speed = segment_speeds(result)
    timed = sum(t / f for t, f in zip(result["segment_s"], speed))
    times = [
        op[1] / speed[op[4]] for op, good in zip(result["ops"], ok) if good
    ]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": len(times) / timed, "unit": "1/s"},
        "op_ms_p50": {
            "value": statistics.median(times) * 1e3 if times else math.inf,
            "unit": "ms",
        },
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.mean(values) if values else 0.0


def per_layer(result: dict) -> dict:
    """Per-layer metrics from the traced passes; a layer that no span
    reached reads 0."""
    spans = result["spans"]
    rounds = {"ops": result["passes"] // 2, "probe": result["probe_rounds"]}

    def phase_of(name: str) -> str:
        """A layer is measured on the workload's own operations when they
        enter it, otherwise on the probe round."""
        own = any(s[0] == name and s[4]["phase"] == "ops" for s in spans)
        return "ops" if own else "probe"

    def pick(name: str, phase: str | None = None) -> list[list]:
        phase = phase or phase_of(name)
        return [s for s in spans if s[0] == name and s[4]["phase"] == phase]

    def ms(name: str) -> float:
        return _median(s[2] - s[1] for s in pick(name)) * 1e3

    block_phase = phase_of("solver.solve_fpp")
    blocks = pick("solver.solve_fpp")
    lps = pick("simplex.solve_lp", block_phase)
    block_ids = {id(s) for s in blocks}
    block_time = sum(s[2] - s[1] for s in blocks)
    lp_time = sum(s[2] - s[1] for s in lps if id(spans[s[3]]) in block_ids)
    commands = {
        cmd: _median(s[2] - s[1] for s in spans if s[0] == "op" and s[4]["op"] == cmd)
        * 1e3
        for cmd in ("solve", "reproduce", "oracle")
    }
    speed = segment_speeds(result)
    untraced = sum(op[1] / speed[op[4]] for op in result["ops"] if not op[2])
    traced = sum(op[1] / speed[op[4]] for op in result["ops"] if op[2])
    probes = result["probes_ms"]

    def m(value, unit):
        return {"value": value, "unit": unit}

    return {
        "cli.interpreter_ms": m(probes["bare"], "ms"),
        "cli.import_ms": m(probes["fahp"] - probes["bare"], "ms"),
        "cli.numpy_import_ms": m(probes["numpy"] - probes["bare"], "ms"),
        "cli.main_ms.solve": m(commands["solve"], "ms"),
        "cli.main_ms.reproduce": m(commands["reproduce"], "ms"),
        "cli.main_ms.oracle": m(commands["oracle"], "ms"),
        "documents.load_ms": m(ms("documents.load_study"), "ms"),
        "documents.serialize_ms": m(ms("documents.serialize_results"), "ms"),
        "composition.compose_ms": m(ms("composition.compose_global"), "ms"),
        "reproduce.build_report_ms": m(ms("reproduce.build_report"), "ms"),
        "reproduce.format_ms": m(ms("reproduce.format_report"), "ms"),
        "solver.block_ms_p50": m(ms("solver.solve_fpp"), "ms"),
        "solver.self_ms": m(
            (block_time - lp_time) / len(blocks) * 1e3 if blocks else 0.0, "ms"
        ),
        "solver.probes_per_block": m(
            _mean(s[4]["probes"] for s in blocks if "probes" in s[4]), "count"
        ),
        "solver.oracle_ms": m(ms("solver.oracle_solve"), "ms"),
        "solver.oracle_points": m(
            _mean(s[4]["points"] for s in pick("solver.oracle_solve")), "count"
        ),
        "simplex.lp_calls": m(len(lps) / rounds[block_phase], "count"),
        "simplex.lp_failed": m(
            sum(s[4]["status"] != "optimal" for s in lps) / rounds[block_phase], "count"
        ),
        "simplex.lp_us_p50": m(_median(s[2] - s[1] for s in lps) * 1e6, "us"),
        "simplex.lp_rows_mean": m(_mean(s[4]["rows"] for s in lps), "count"),
        "simplex.share": m(lp_time / block_time if blocks else 0.0, "ratio"),
        "trace.slowdown": m(traced / untraced, "ratio"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="fahp benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "fahp" / "__init__.py").is_file():
        return fail(f"no src/fahp under {ROOT}; run from the root of a checkout")

    out = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out.mkdir(parents=True)
    proc = None
    try:
        setups = []  # at reference host speed, like every time metric
        for i in range(SETUP_REPEATS):
            last = i == SETUP_REPEATS - 1
            mode = ("trace" if args.trace else "run") if last else "setup"
            speed = calib.sample() / calib.REFERENCE_S
            proc, setup = start_worker(args, mode, out / (mode + str(i)))
            setups.append(setup / speed)
            usage = reap(proc, args.seconds + WORKER_GRACE_S if last else WORKER_GRACE_S)
            if proc.returncode != 0:
                return fail(f"{mode} worker exited {proc.returncode}")
        result = json.loads((out / (mode + str(i)) / "result.json").read_text(encoding="utf-8"))
    finally:
        if proc is not None and proc.returncode is None:
            proc.kill()
            reap(proc, 10.0)
        shutil.rmtree(out, ignore_errors=True)

    problems = check_outputs(args.workload, args.seed, result["outputs"])
    ok = [not problems[op] and same for op, _, _, same, _ in result["ops"]]
    expected = workloads.fault_ops(args.workload)
    for op, found in sorted(problems.items()):
        for p in found:
            print(f"check {op}: {p}", file=sys.stderr)
    for op in result["mismatched"]:
        print(f"check {op}: output changed between passes", file=sys.stderr)

    if args.trace:
        metrics = per_layer(result)
    else:
        rss = result["child_rss_kb"] if args.workload == "paper_cli" else usage.ru_maxrss
        metrics = end_to_end(result, ok, setups, rss)
    attempted = len(ok)
    failed = attempted - sum(ok)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    slow = statistics.median(result["reference_s"]) / calib.REFERENCE_S
    print(
        f"{args.workload} attempted = {attempted}, failed = {failed}, "
        f"passes = {result['passes']}, host kernel at {slow:.3f}x reference time"
    )
    # Only the fault reproducers may fail; any other failed check, and any
    # output that changed between passes, makes the run incorrect.
    correct = not result["mismatched"] and all(
        good or op in expected for (op, *_), good in zip(result["ops"], ok)
    )
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
