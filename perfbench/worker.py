"""The measured process: sets up one workload, then runs whole passes of it.

    python3 perfbench/worker.py --workload W --seed N --seconds T \
        --mode setup|run|trace --out DIR

Started by run.py from the root of a checkout. It imports fahp from the
checkout's src/ only, prints READY once set-up is done, and in the run and
trace modes writes DIR/result.json when its passes are over. It never
imports scipy, so its peak RSS is the program's.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import fahp  # noqa: E402
import fahp.cli  # noqa: E402
import fahp.composition  # noqa: E402
import fahp.documents  # noqa: E402
import fahp.reproduce  # noqa: E402
import fahp.simplex  # noqa: E402
import fahp.solver  # noqa: E402

import calib  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, install_program_spans  # noqa: E402

if not Path(fahp.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"fahp was imported from {fahp.__file__}, not from {SRC}")

BUNDLED = SRC / "fahp" / "data" / "supply_chain_study.json"
# The installed `fahp` executable is this console-script entry point.
CLI_ENTRY = "import sys; from fahp.cli import main; sys.exit(main())"
SUBPROCESS_PROBE_ROUNDS = 5
TRACE_PROBE_ROUNDS = 2
CALIBRATE_EVERY_S = 1.0


def matrix_of(block: dict) -> fahp.ComparisonMatrix:
    return fahp.ComparisonMatrix(
        parent="block",
        items=tuple(block["items"]),
        judgments=tuple(
            fahp.ComparisonJudgment(r, c, fahp.TFN(l, m, u))
            for r, c, l, m, u in block["judgments"]
        ),
    )


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str]) -> tuple[int, bytes, int]:
    """Run a fresh interpreter to exit; (exit code, stdout+stderr, max RSS KiB)."""
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=cli_env()
    )
    output = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, output, usage.ru_maxrss


def main_in_process(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = fahp.cli.main(argv)
    return code, buf.getvalue()


class Workload:
    """One pass runs op_names() in order; each operation returns a
    JSON-ready output to compare across passes and to check afterwards."""

    def __init__(self, name: str, seed: int, out: Path) -> None:
        self.name, self.seed, self.out = name, seed, out
        out.mkdir(parents=True, exist_ok=True)
        self.child_rss_kb = 0
        self.in_process = name != "paper_cli"
        if name == "blocks_large":
            self.blocks = workloads.large_blocks(seed)
            self.matrices = [matrix_of(b) for b in self.blocks]
        elif name == "studies_small":
            self.files = []
            for k, study in enumerate(workloads.small_studies(seed)):
                path = out / f"study{k:02d}.json"
                path.write_text(workloads.study_document(study), encoding="utf-8")
                self.files.append(path)
        else:
            path = out / "oracle_study.json"
            path.write_text(
                workloads.study_document(workloads.oracle_study(seed)),
                encoding="utf-8",
            )
            self.oracle_file = path

    def op_names(self) -> list[str]:
        if self.name == "blocks_large":
            return [f"block{k:02d}" for k in range(len(self.blocks))]
        if self.name == "studies_small":
            return [f"study{k:02d}" for k in range(len(self.files))]
        return ["solve", "reproduce", "oracle"]

    def paper_argv(self, op: str) -> list[str]:
        results = str(self.out / f"{op}_out.json")
        return {
            "solve": ["solve", str(BUNDLED), "--no-timestamp", "--out", results],
            "reproduce": ["reproduce-paper", "--out", results],
            "oracle": ["oracle", str(self.oracle_file)],
        }[op]

    def run_op(self, k: int, op: str) -> tuple[float, dict]:
        """Time one operation; the output is gathered after the clock stops."""
        if self.name == "blocks_large":
            t0 = time.perf_counter()
            try:
                res = fahp.solver.solve_fpp(self.matrices[k])
            except Exception as exc:
                dt = time.perf_counter() - t0
                return dt, {"error": f"{type(exc).__name__}: {exc}"}
            dt = time.perf_counter() - t0
            return dt, {
                "weights": res.weights,
                "lambda": res.lambda_,
                "iterations": res.iterations,
            }
        if self.name == "studies_small":
            results = self.out / f"{op}_out.json"
            argv = ["solve", str(self.files[k]), "--no-timestamp", "--out", str(results)]
            t0 = time.perf_counter()
            code, text = main_in_process(argv)
            dt = time.perf_counter() - t0
            return dt, {"exit": code, "stdout": text, "out": read_text(results)}
        argv = self.paper_argv(op)
        if self.in_process:
            t0 = time.perf_counter()
            code, text = main_in_process(argv)
            dt = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            code, raw, rss = run_child([sys.executable, "-c", CLI_ENTRY, *argv])
            dt = time.perf_counter() - t0
            self.child_rss_kb = max(self.child_rss_kb, rss)
            text = raw.decode("utf-8", "replace")
        out = {"exit": code, "stdout": text}
        if op != "oracle":
            out["out"] = read_text(self.out / f"{op}_out.json")
        return dt, out


def read_text(path: Path) -> str | None:
    """The file's text, or None if it is missing. The file is removed, so an
    operation that does not write it again is caught."""
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    path.unlink()
    return text


def run_passes(wl: Workload, seconds: float, tracer: Tracer | None = None):
    """Whole passes until `seconds` of operations have gone by.

    The host-speed kernel is timed before the first operation and then after
    any operation that ends at least CALIBRATE_EVERY_S after the last
    sample; each operation is tagged with the segment between two samples it
    ran in. With a tracer, passes alternate untraced and traced, starting
    untraced, and an even number of passes is run so both halves see the
    same operations."""
    names = wl.op_names()
    ops, first, mismatched = [], {}, set()
    segments, reference = [], [calib.sample()]
    passes = 0
    seg_start = time.perf_counter()

    def busy() -> float:
        return sum(segments) + time.perf_counter() - seg_start

    while passes == 0 or busy() < seconds or (tracer is not None and passes % 2):
        traced = tracer is not None and passes % 2 == 1
        if traced:
            install_program_spans(tracer, fahp)
        for k, op in enumerate(names):
            if traced:
                index = tracer.open("op", op=op)
            dt, output = wl.run_op(k, op)
            if traced:
                tracer.close(index)
            if op not in first:
                first[op] = output
            elif output != first[op]:
                mismatched.add(op)
            ops.append([op, dt, traced, output == first[op], len(segments)])
            if time.perf_counter() - seg_start >= CALIBRATE_EVERY_S:
                segments.append(time.perf_counter() - seg_start)
                reference.append(calib.sample())
                seg_start = time.perf_counter()
        if traced:
            tracer.uninstall()
        passes += 1
    if ops[-1][4] == len(segments):
        segments.append(time.perf_counter() - seg_start)
        reference.append(calib.sample())
    return {
        "passes": passes,
        "segment_s": segments,
        "reference_s": reference,
        "ops": ops,
        "outputs": first,
        "mismatched": sorted(mismatched),
    }


def subprocess_probes() -> dict[str, float]:
    """Medians, in ms, of a bare interpreter, `import numpy` and `import fahp`."""
    codes = {"bare": "pass", "numpy": "import numpy", "fahp": "import fahp"}
    times: dict[str, list[float]] = {k: [] for k in codes}
    for _ in range(SUBPROCESS_PROBE_ROUNDS):
        for key, code in codes.items():
            t0 = time.perf_counter()
            exit_code, raw, _ = run_child([sys.executable, "-c", code])
            times[key].append((time.perf_counter() - t0) * 1e3)
            if exit_code != 0:
                raise RuntimeError(f"probe {code!r} failed: {raw[-300:]!r}")
    return {k: statistics.median(v) for k, v in times.items()}


def probe_round(wl: Workload, tracer: Tracer) -> None:
    """The paper_cli commands in-process, traced under phase "probe", so
    layers the workload does not enter still get a figure."""
    paper = Workload("paper_cli", wl.seed, wl.out / "probe")
    paper.in_process = True
    tracer.phase = "probe"
    install_program_spans(tracer, fahp)
    for _ in range(TRACE_PROBE_ROUNDS):
        for k, op in enumerate(paper.op_names()):
            index = tracer.open("op", op=op)
            _, output = paper.run_op(k, op)
            tracer.close(index)
            if output["exit"] != 0:
                raise RuntimeError(f"probe {op} exited {output['exit']}")
    tracer.uninstall()
    tracer.phase = "ops"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    wl = Workload(args.workload, args.seed, args.out)
    if args.mode == "trace":
        wl.in_process = True  # spans can only be recorded in this process
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    tracer = Tracer() if args.mode == "trace" else None
    result = run_passes(wl, args.seconds, tracer)
    result["child_rss_kb"] = wl.child_rss_kb
    if tracer is not None:
        if args.workload != "paper_cli":
            probe_round(wl, tracer)
        result["probes_ms"] = subprocess_probes()
        result["probe_rounds"] = TRACE_PROBE_ROUNDS
        result["spans"] = tracer.spans
    (args.out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
