"""Drift correction: operation times are reported at reference speed.

The machine's speed wanders by more than the changes the benchmark has to
see: in stretches of several seconds one process runs 30 % slower or
faster.  A fixed loop, timed between operations, tracks that speed.
Each measured time is multiplied by NOMINAL_S over the loop's measured
duration near it, which turns it into the time the operation
would take on a machine that runs the loop in NOMINAL_S.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np

#: Duration of `reference_loop` on the machine the bounds were set on
#: (2 cores, Python 3.11).  Only its constancy matters: it sets the unit.
NOMINAL_S = 0.0018

#: Wall time between two loop samples during a run.
SAMPLE_INTERVAL_S = 0.15

#: Back-to-back loops per sample; the sample is their median.
LOOPS_PER_SAMPLE = 3


def reference_loop() -> float:
    """Run the fixed loop once and return its duration in seconds.

    Three parts, each the kind of work one of the workloads does: float
    arithmetic with math calls and list appends (integrands inside the
    engine), small numpy arrays drawn from a fresh Generator (partition
    generation), and tuple and dict churn (the interpreter's allocator).
    Together they track the workloads' speed far better than any one part:
    over three processes whose raw speed differed by 11 % (library) and
    33 % (observation), the ratio to the mixed loop moved by 0.6 % and
    1.3 %, against 2.7 % and 4.8 % for the float part alone (measured with
    a 2.5 times longer loop of the same make-up).
    """
    gc_was_on = gc.isenabled()
    gc.disable()  # a collection would time the program's heap, not the machine
    try:
        return _timed_loop()
    finally:
        if gc_was_on:
            gc.enable()


def _timed_loop() -> float:
    t0 = time.perf_counter()
    acc = []
    x = 0.1
    s = 0.0
    for _ in range(4000):
        s += math.sin(x) * 0.5 + x * x
        x += 1e-4
        acc.append(s)
    for i in range(25):
        rng = np.random.default_rng((i, 7))
        v = np.sort(rng.uniform(0.0, 1.0, size=30))
        s += float(np.sum(0.5 * (v[1:] - v[:-1]) / (v[1:] + 1.0)))
    table = {}
    for i in range(1200):
        item = (i, i * 0.5, str(i))
        table[i % 97] = item
        acc.append([item, item])
    return time.perf_counter() - t0


class DriftClock:
    """Loop samples taken through a run, and the factor for each stretch.

    Operations between sample i and sample i + 1 form segment i.  The
    segment's factor uses the median of the four samples nearest to it,
    so one sample hit by an interrupt does not move it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf
        self.sample()

    @property
    def segment(self) -> int:
        return len(self.samples) - 1

    def sample(self) -> None:
        self.samples.append(statistics.median(
            reference_loop() for _ in range(LOOPS_PER_SAMPLE)))
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_INTERVAL_S:
            self.sample()

    def factors(self) -> list[float]:
        """NOMINAL_S over the local loop duration, for each segment."""
        s = self.samples
        return [NOMINAL_S / statistics.median(s[max(0, i - 1):i + 3])
                for i in range(len(s))]
