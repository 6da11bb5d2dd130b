"""Host speed: a fixed calibration kernel, timed between operations.

The benchmark runs on a few cores of a shared host.  The speed of a core
moves by up to a third, in steps that last seconds to minutes, and CPU time
does not leave that out.  So a
run times a fixed kernel, which does not touch ballmax, between its
operations and divides each operation's CPU time by how slowly the kernel
ran around it.  Times so scaled read as CPU times on a host where the kernel
takes ``REFERENCE_S``.

The kernel is numpy and ``scipy.special.betainc`` on arrays of a few
thousand elements, the shape of ballmax's geometry batches.  Of the kernels
tried (interpreted Python arithmetic, numpy calls on 64-element arrays,
gathers from arrays of 2 to 32 MiB, dict lookups) it followed the workloads'
own speed most closely.  It depends only on numpy and scipy, so a change to
the program cannot change it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy.special import betainc

# The kernel's CPU time on the host the benchmark was defined on (2 vCPUs of
# an Intel Xeon under KVM), near the middle of its range there.
REFERENCE_S = 0.010
# An operation is scaled by the median of this many kernel timings nearest it.
WINDOW = 11

_RNG = np.random.default_rng(12345)
_X = _RNG.uniform(0.0, 1.0, 3000)
_R = _RNG.uniform(0.5, 2.0, 3000)


def kernel() -> float:
    """Run the calibration kernel once.  It returns its result, so that no
    part of it is dead code."""
    acc = 0.0
    for _ in range(8):
        h = np.clip(_R - _X, 0.0, 2.0 * _R)
        frac = betainc(0.5, 1.5, np.clip(_X * _X, 0.0, 1.0))
        acc += float(np.where(h <= _R, frac, 1.0 - frac).sum())
    return acc


class Calibration:
    """Kernel CPU times taken between operations, and the scale they give."""

    def __init__(self):
        self.positions: list[int] = []  # operations done before each timing
        self.times: list[float] = []
        kernel()  # warm-up: first-call costs

    def measure(self, position: int) -> None:
        t0 = time.process_time()
        kernel()
        self.times.append(time.process_time() - t0)
        self.positions.append(position)

    def factor(self, position: int) -> float:
        """How much slower than the reference the host ran around an
        operation: the median of the WINDOW kernel timings nearest it, over
        REFERENCE_S."""
        p = bisect.bisect_right(self.positions, position)
        lo = max(0, min(p - WINDOW // 2, len(self.times) - WINDOW))
        return statistics.median(self.times[lo : lo + WINDOW]) / REFERENCE_S

    def overall_factor(self) -> float:
        """The same, over all the kernel timings."""
        return statistics.median(self.times) / REFERENCE_S

    def scale(self, latencies: list[float]) -> list[float]:
        """Latencies as they would read on the reference host."""
        return [x / self.factor(i) for i, x in enumerate(latencies)]
