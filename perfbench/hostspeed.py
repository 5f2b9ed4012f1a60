"""Host-speed adjustment of measured times.

On a shared host the speed of this process changes by up to half, in spells
of seconds to minutes, as other tenants load the machine.  Whole runs fall in
one spell, so no run length the benchmark can afford averages it out, and raw
times of the same code spread by 20-30% from run to run.

So a fixed pure-Python calibration kernel runs between operations, about
every CALIBRATE_EVERY_S, and each measured interval is scaled by
REFERENCE_KERNEL_S over the kernel's median time within SMOOTH_S of it.
Scaled times read as they would on a host where the kernel takes
REFERENCE_KERNEL_S; on the uncontended 2-vCPU Xeon the benchmark was built
on, it takes about that long, so scaled and raw times agree there.  The
kernel calls nothing in ``derived_brackets``, so no change to the library can
move it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

KERNEL_STEPS = 400
REFERENCE_KERNEL_S = 0.0013
CALIBRATE_EVERY_S = 0.1
SMOOTH_S = 0.25


def _kernel():
    """Work in the library's style: exact rationals accumulated in a dict
    under tuple keys, and small containers."""
    third = Fraction(1, 3)
    acc = {}
    for i in range(KERNEL_STEPS):
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, 0) + third * (i % 11)
        [key, i, (i, key)]
    return acc


class HostSpeed:
    """Calibration samples of one process, in time order."""

    def __init__(self):
        self.at: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> float:
        """Time the kernel once; returns the clock when it finished."""
        gc.disable()  # a collection would charge the library's heap to the kernel
        try:
            start = time.perf_counter()
            _kernel()
            end = time.perf_counter()
        finally:
            gc.enable()
        self.at.append(end)
        self.kernel_s.append(end - start)
        return end

    def due(self, now: float) -> bool:
        return now - self.at[-1] >= CALIBRATE_EVERY_S

    def scaled(self, start: float, end: float) -> float:
        """The interval [start, end] in reference seconds."""
        lo = bisect.bisect_left(self.at, start - SMOOTH_S)
        hi = bisect.bisect_right(self.at, end + SMOOTH_S)
        near = self.kernel_s[max(lo - 1, 0):hi + 1]
        return (end - start) * REFERENCE_KERNEL_S / statistics.median(near)
