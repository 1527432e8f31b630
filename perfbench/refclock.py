"""Reference clock: scales measured times to a fixed machine speed.

On a shared 2-vCPU virtual machine (Intel Xeon host) the speed of the whole
machine drifts by about 25% over minutes, so run medians of any length
within the benchmark's time budget disagree by as much.  Every end-to-end
time is therefore scaled by REF_S / k, where k is the time of a fixed
stdlib kernel measured in the same process right next to the measurement.
A change to the package moves the measured time and not the kernel; a
slower machine moves both.  REF_S is the kernel's typical time on that
machine, so scaled times read as seconds there.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

REF_S = 0.0075

_rng = random.Random(5)
_MAT = [[Fraction(_rng.randint(-3, 3), _rng.randint(1, 4)) for _ in range(6)]
        for _ in range(6)]
_COLS = list(zip(*_MAT))


def calibrate() -> float:
    """Fastest of three runs of the kernel, in seconds: six products of
    Fraction matrices and an integer loop, with the garbage collector off so
    that the package's live objects do not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            m = _MAT
            for _ in range(6):
                m = [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in _COLS]
                     for row in m]
            acc = 0
            for i in range(20000):
                acc += i * i
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def factor(before: float, after: float) -> float:
    """Scale for a time measured between two kernel timings."""
    return 2 * REF_S / (before + after)


def smooth(kernels: list) -> list:
    """Running median of three, so that one interrupted kernel timing does
    not rescale the op next to it."""
    return [statistics.median(kernels[max(0, i - 1):i + 2]) for i in range(len(kernels))]
