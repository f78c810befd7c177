"""Host-speed reference: a fixed kernel timed next to every pass.

The machines this benchmark runs on are shared: the same work can take 20 %
longer for a few seconds or minutes when neighbours are busy, and CPU time
tracks wall time, so the slowdown cannot be measured from inside a process.
The benchmark therefore times this kernel, which does not touch the program,
before every pass and after the last one, and before every set-up. Time
metrics are reported at reference speed: measured time divided by
(kernel time measured nearby / REFERENCE_S). The kernel mixes the kinds of
work the program does: small numpy row updates in a Python loop, plain
Python arithmetic, and JSON text.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

#: Median kernel time on the machine the reference figures come from (see
#: README.md). Only ratios between runs on one machine matter; the constant
#: keeps the reported figures close to wall time there.
REFERENCE_S = 0.025
SAMPLES = 3


def _kernel() -> None:
    tableau = np.linspace(1.0, 2.0, 24 * 40).reshape(24, 40)
    for step in range(240):
        row = step % 24
        tableau[row] /= tableau[row, step % 40]
        for r in range(24):
            if r != row:
                tableau[r] -= 1e-3 * tableau[row]
    total = 0
    for i in range(40_000):
        total += (i * i) % 7
    doc = {f"k{i}": [i * 0.1, str(i), {"v": i}] for i in range(600)}
    json.loads(json.dumps(doc))


def sample() -> float:
    """Median time of SAMPLES kernel runs, in seconds."""
    times = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
