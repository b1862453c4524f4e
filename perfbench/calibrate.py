"""Host-speed calibration of the benchmark's timings.

On a shared host the CPU's speed drifts with its neighbours' load: the same
``generate`` command took 0.73-1.56 s within two minutes, in stretches of
10-60 s, with CPU time equal to wall time (nothing waited). Over a run of
20-45 s that drift alone spread run medians by 20-30%.

A fixed kernel, independent of capseq, runs before the first timed unit and
after every timed unit, on the same CPU. Each unit's time is scaled by
``KERNEL_S / k``, where ``k`` is the mean of the two kernel times on either
side of it: the time the unit would take on a host where the kernel takes
``KERNEL_S``. A change in capseq moves the unit times and not the kernel, so
it shows in full; a drift of the host moves both and cancels. (Medians over
wider windows of kernel runs tracked the drift no better in trials on all
four workloads.) The kernel mixes what capseq's decoding does: small float64 matrix products, element-wise numpy calls and
Python-level bookkeeping over their results.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time the scaled timings refer to; about its median on a 2-vCPU
# x86-64 cloud host with one BLAS thread.
KERNEL_S = 0.060
_STEPS = 1200


class Calibration:
    """Runs the kernel and turns raw unit times into scaled ones."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((32, 64))
        self._w = rng.standard_normal((64, 64)) * 0.1
        self.kernel_s: list[float] = []

    def _kernel(self) -> float:
        start = time.perf_counter()
        h, best = self._x, []
        for _ in range(_STEPS):
            h = np.tanh(h @ self._w)
            p = np.exp(h - h.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            best = sorted(((float(v), j) for j, v in enumerate(p[0, :16])), reverse=True)[:4]
        elapsed = time.perf_counter() - start
        if not (np.isfinite(h).all() and len(best) == 4):
            raise RuntimeError("calibration kernel produced a non-finite result")
        return elapsed

    def start(self) -> None:
        """Kernel run before the first timed unit."""
        self.kernel_s.append(self._kernel())

    def tick(self) -> float:
        """Kernel run after a timed unit; returns that unit's scale factor."""
        self.kernel_s.append(self._kernel())
        return KERNEL_S / statistics.fmean(self.kernel_s[-2:])
