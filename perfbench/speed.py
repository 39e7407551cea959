"""Machine-speed calibration, so that job times are steady on a shared host.

On a shared virtual machine the same job runs 10-30 % slower or faster for
seconds to minutes at a time, as neighbours load the host's cores, caches
and memory.  The worker runs a small fixed kernel (interpreter loop, small
numpy calls, correlate, small BLAS matrix-vector products, element-wise numpy,
a dot product streaming an array larger than L2) at most every
``INTERVAL_S`` between jobs, and scales each job's wall time by
``REFERENCE_S`` over the kernel's median time near that job.  A reported
time is so "seconds at reference speed": the time the job takes when the
kernel takes ``REFERENCE_S``.  The kernel touches no code of dirspace, so a
change to the package moves job times and not the kernel.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: the kernel's wall time at reference speed (its median on a quiet 2-vCPU
#: Xeon VM with one BLAS thread); a constant, so that scaled times stay in s
REFERENCE_S = 0.004
#: at most one kernel run per this much wall time
INTERVAL_S = 0.2
#: a job is scaled by the kernel runs within this distance of it
WINDOW_S = 1.0


class Speed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.tiny = rng.standard_normal(64)
        self.signal = rng.standard_normal(4000)
        self.taps = rng.standard_normal(200)
        self.small = rng.standard_normal((384, 384))
        self.vec = rng.standard_normal(384)
        self.mid = rng.standard_normal(100_000)
        self.big = rng.standard_normal(2_000_000)  # 16 MB: larger than L2
        self.times: list[float] = []  # start of each kernel run
        self.costs: list[float] = []  # its wall time
        self.last = -INTERVAL_S

    def kernel(self) -> float:
        """Wall time of one run: about 1/6 each of interpreter loop, small
        numpy calls, correlate, small BLAS, element-wise numpy, streaming dot."""
        start = time.perf_counter()
        acc = 0
        for i in range(10000):
            acc += i * i % 7
        for _ in range(150):
            float((self.tiny[3:40] * self.tiny[5:42]).sum())
        for _ in range(4):
            np.correlate(self.signal, self.taps, mode="valid")
        y = self.vec
        for _ in range(32):
            y = self.small @ y
            y = y / np.linalg.norm(y)
        for _ in range(2):
            float(np.sqrt(np.abs(self.mid) + 1.0).sum())
        float(self.big @ self.big)
        return time.perf_counter() - start

    def tick(self) -> None:
        """Run the kernel if INTERVAL_S has passed since the last run."""
        now = time.perf_counter()
        if now - self.last >= INTERVAL_S:
            self.times.append(now)
            self.costs.append(self.kernel())
            self.last = time.perf_counter()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time near [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.costs[lo:hi] or self.costs
        return REFERENCE_S / statistics.median(near)

    def probe(self, runs: int = 15) -> float:
        """REFERENCE_S over the median of `runs` kernel runs now, after three
        untimed ones that touch the arrays and warm the caches."""
        for _ in range(3):
            self.kernel()
        return REFERENCE_S / statistics.median(self.kernel() for _ in range(runs))
