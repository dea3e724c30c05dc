"""Reference-speed normalisation of measured times.

The host's speed changes by up to 2x within seconds: ops run in a fast or a
slow mode for seconds at a time, and a run can sit entirely in either.  A
fixed reference task that never touches fockwc slows down by the same
factor.  So the benchmark runs a reference task next to the ops and scales
each op's time by

    reference time at reference speed / reference time measured next to it,

which reports times at reference speed.  Two reference tasks are used,
matched to what is timed:

- in-process ops: ``kernel()``, Python arithmetic and small NumPy/LAPACK
  calls, which takes 1 ms at reference speed; for ops dominated by BLAS
  running on every core, ``kernel()`` plus ``gemm()``, three 160 x 160
  complex products that BLAS threads, 1 ms more;
- child processes (cli ops, fresh-interpreter set-up):
  ``python -c "import numpy"``, which takes 100 ms at reference speed.

A change to fockwc moves the op times and not the reference, so it shows in
full.  Work that slows the whole process or host (threads left running, a
changed global BLAS setting) slows the reference too and would be hidden.
The raw times are printed next to the normalised ones.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

import numpy as np

KERNEL_REF_S = 1e-3
GEMM_REF_S = 1e-3
CHILD_REF_S = 0.1
# in-process: take a kernel sample once this much op time has passed
KERNEL_EVERY_S = 0.015

_rng = np.random.default_rng(20231208)
_M = _rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
_P = [_rng.standard_normal(3) + 1j * _rng.standard_normal(3) for _ in range(16)]
_G = _rng.standard_normal((160, 160)) + 1j * _rng.standard_normal((160, 160))


def kernel() -> complex:
    """About 1-2 ms of scalar complex exponentials and small SVDs."""
    acc = 0j
    for z in _P:
        for w in _P:
            acc += complex(np.exp(np.dot(z, np.conj(w)) * 0.01))
    for _ in range(20):
        acc += np.linalg.norm(_M @ _M.conj().T, 2)
    return acc


def gemm():
    for _ in range(3):
        _G @ _G


def kernel_time(repeats: int = 1, with_gemm: bool = False) -> float:
    """Median seconds of ``repeats`` runs of the kernel (and gemm)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        if with_gemm:
            gemm()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def child_time(repeats: int = 1) -> float:
    """Median wall seconds of ``repeats`` ``python -c "import numpy"`` runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                       capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Calibration:
    """Reference samples taken between ops, and per-op scale factors."""

    def __init__(self, probe, ref_s: float, every_s: float):
        self.probe, self.ref_s, self.every_s = probe, ref_s, every_s
        self.starts: list[float] = []
        self.times: list[float] = []
        self._since = 0.0

    @classmethod
    def in_process(cls, with_gemm: bool = False):
        if with_gemm:
            return cls(lambda: kernel_time(with_gemm=True),
                       KERNEL_REF_S + GEMM_REF_S, KERNEL_EVERY_S)
        return cls(kernel_time, KERNEL_REF_S, KERNEL_EVERY_S)

    @classmethod
    def child_process(cls):
        return cls(child_time, CHILD_REF_S, 0.0)

    def sample(self):
        self.starts.append(time.perf_counter())
        self.times.append(self.probe())
        self._since = 0.0

    def after_op(self, op_seconds: float):
        self._since += op_seconds
        if self._since >= self.every_s:
            self.sample()

    def factors(self, op_starts) -> list[float]:
        """Reference time over the mean of the samples just before and just
        after each op start."""
        out = []
        for t in op_starts:
            j = bisect.bisect_left(self.starts, t)
            out.append(self.ref_s / statistics.fmean(self.times[max(j - 1, 0):j + 1]))
        return out

    def median(self) -> float:
        return statistics.median(self.times)
