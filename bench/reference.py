"""Machine-speed reference for the benchmark.

On a shared host the speed of the same Python code drifts by tens of
percent over seconds to minutes as other load comes and goes.
``reference_unit`` is about a millisecond of fixed pure-Python work
(rational arithmetic, tuple keys, dict updates, JSON) that does not touch
valmono.  Timing it next to the measured work says how fast the machine
ran Python at that moment, so ``run.py`` can divide the drift out.
"""

from __future__ import annotations

import bisect
import json
import time
from fractions import Fraction

# nominal duration of one reference_unit: normalized timings read as if
# the machine ran the unit in exactly this long
REFERENCE_UNIT_S = 0.0007


def reference_unit() -> None:
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 60):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(3, i)
        key = tuple((i * j) % 5 for j in range(4))
        table[key] = table.get(key, Fraction(0)) + acc
    json.dumps({str(k): str(v) for k, v in table.items()})


def timed_unit() -> tuple[float, float]:
    """(midpoint, duration) of one reference_unit."""
    t0 = time.perf_counter()
    reference_unit()
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0


class Pacer:
    """Times one reference unit after every ``every_s`` of measured work."""

    def __init__(self, every_s: float = 0.01):
        self.every_s = every_s
        self.since = 0.0
        self.samples: list[tuple[float, float]] = []

    def after(self, work_s: float) -> None:
        self.since += work_s
        if self.since >= self.every_s:
            self.since = 0.0
            self.samples.append(timed_unit())


def local_speed(samples: list, at: list[float], window_s: float = 0.5) -> list[float]:
    """For each time in ``at``, the mean unit duration of the samples within
    ``window_s`` of it, over REFERENCE_UNIT_S (1.0 = nominal speed)."""
    times = [t for t, _ in samples]
    prefix = [0.0]
    for _, d in samples:
        prefix.append(prefix[-1] + d)
    mean_all = prefix[-1] / len(samples)
    out = []
    for t in at:
        lo = bisect.bisect_left(times, t - window_s)
        hi = bisect.bisect_right(times, t + window_s)
        mean = (prefix[hi] - prefix[lo]) / (hi - lo) if hi > lo else mean_all
        out.append(mean / REFERENCE_UNIT_S)
    return out
