"""The machine's current speed, from a fixed reference computation.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes, for all code alike.  Every time the benchmark
reports is therefore scaled to a reference speed: it is multiplied by
REFERENCE_S over the time of `reference_loop` measured right before and
right after it, in the same process.  The loop is plain `Fraction`
arithmetic and touches nothing of psicalc, so no change to psicalc can
move it; on a machine where the loop takes REFERENCE_S the scaled time
equals the wall time.  `run.py` prints the raw wall-clock values beside
the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.008  # median loop time on an idle 2-vCPU x86-64 VM, Python 3.11
REPEATS = 5


def reference_loop() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(1, i)
    return acc


def reference_s() -> float:
    """Median wall time of REPEATS runs of the reference loop."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two reference readings to
    reference speed."""
    return REFERENCE_S / ((before + after) / 2)
