"""Core-speed calibration for timings taken on a shared machine.

On a small shared VM the speed one core delivers drifts by 15-25% over
tens of seconds as neighbouring workloads come and go, which swamps the
differences the benchmark exists to show. Each run therefore times a fixed
calibration loop next to its workload, in the same process, and reports
its rates and set-up time scaled to a nominal core speed:

    corrected_time = measured_time / slowdown,  slowdown = loop_time / NOMINAL_S

The loops are independent of the program, so no change to the program can
move them. ``scalar`` mimics the flight workloads (Python arithmetic, tiny
numpy arrays, frozen dataclasses) and ``array`` the Monte-Carlo oracle
(streaming numpy kernels over arrays far larger than the caches). The raw,
uncorrected numbers are reported next to the corrected ones.
"""

import statistics
import time
from dataclasses import dataclass

import numpy as np

REPEATS = 3  # loop runs per calibration; the median is kept


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


def _scalar_loop() -> float:
    m = np.arange(9.0).reshape(3, 3)
    total = 0.0
    for i in range(1000):
        a = np.array([float(i), 1.0, 2.0])
        c = np.cross(a, m @ a)
        pair = _Pair(float(c[0]), float(np.sin(c[1])))
        total += pair.a * 1e-9 + sum(k * k for k in range(20))
    return total


def _array_loop() -> float:
    x = np.random.default_rng(1).normal(0.0, 1.0, (300_000, 3))
    return float(np.sqrt((x * x).sum(axis=1)).sum())


_LOOPS = {"scalar": _scalar_loop, "array": _array_loop}

# Median loop times on an idle core of the 2-vCPU reference VM (Python 3.11,
# numpy 2.4); they only fix the scale of the corrected numbers.
NOMINAL_S = {"scalar": 0.040, "array": 0.030}


def slowdown(kind: str) -> float:
    """How much slower than nominal the current core runs (1.0 = nominal)."""
    loop = _LOOPS[kind]
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / NOMINAL_S[kind]


class CoreSpeed:
    """Mean slowdown over successive intervals, calibrating at each boundary."""

    def __init__(self, kind: str, start: float | None = None):
        self.kind = kind
        self.last = slowdown(kind) if start is None else start

    def interval(self) -> float:
        """Mean of the slowdowns measured at the start and now at the end of the interval."""
        now = slowdown(self.kind)
        mean, self.last = (self.last + now) / 2, now
        return mean
