"""Machine-speed normalisation and the environment record.

Raw wall clock on a shared box does not repeat: identical training runs were
seen to differ by almost 2x, and CPU time tracked wall time, so the machine
itself was running at different speeds. Every timed cell is therefore
bracketed by a fixed reference kernel (small matmul + tanh, dispatch bound
like the library itself, and independent of it) and divided by the mean of
the two reference times around it. Multiplying by REF_NOMINAL_US puts the
result back into seconds at one fixed nominal machine speed.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np

REF_ITERS = 300
REF_REPS = 5
# one reference measurement (median of REF_REPS kernel runs) on an unloaded
# 2-core x86 box with Python 3.11 and numpy 2.4; a scale constant only
REF_NOMINAL_US = 1100.0


class Clock:
    """Times cells of work and normalises each by the reference around it."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._a0 = rng.standard_normal((20, 25))
        self._w = rng.standard_normal((25, 25)) * 0.2
        self.refs_us: list[float] = []
        self._last_ref = self.measure_ref()

    def _kernel_once(self) -> float:
        a, w = self._a0, self._w
        t0 = time.perf_counter()
        for _ in range(REF_ITERS):
            a = np.tanh(a @ w)
        return time.perf_counter() - t0

    def measure_ref(self) -> float:
        """One reference time in microseconds: the median of a few kernel runs."""
        ref = statistics.median(self._kernel_once() for _ in range(REF_REPS)) * 1e6
        self.refs_us.append(ref)
        return ref

    def time_cell(self, fn):
        """Run fn once; return (result, raw seconds, normalised seconds).

        The reference measured after this cell also serves as the one before
        the next, so cells should run back to back with only untimed checks
        between them.
        """
        before = self._last_ref
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        after = self.measure_ref()
        self._last_ref = after
        return result, raw, raw * REF_NOMINAL_US / (0.5 * (before + after))

    def mean_ref_us(self, since: int = 0) -> float:
        return statistics.fmean(self.refs_us[since:])


def blas_name() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def environment() -> dict:
    """What makes runs from two commits comparable, printed with every run."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "ref_nominal_us": REF_NOMINAL_US,
    }
