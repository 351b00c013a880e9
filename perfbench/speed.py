"""Scaling of measured times to a fixed machine speed.

On a shared machine the speed of one core drifts by up to 2x, presumably as
other tenants load the same physical cores, and it changes within a second.
So a small fixed kernel is timed at most every ``EVERY_S`` seconds, between
items, and once more after the last item of a pass. Each item's time is
multiplied by ``REFERENCE_S`` over the mean of the two kernel timings around
it, so it reads as seconds on a machine where the kernel takes
``REFERENCE_S``. The kernel mixes the two kinds of work the program does:
interpreted numpy-scalar arithmetic, as in the pure-Python eigensolve, and
numpy calls on small arrays (Philox draws, QR, einsum, sort, sha256), as in
the oracle. It is benchmark code, so no change to the program under test
alters it.
"""

import hashlib
import time

import numpy as np

EVERY_S = 0.25
REPEATS = 3
# Kernel time on the 2-core x86_64 machine (Python 3.11, numpy 2.4) on which
# the bounds in BENCHMARK.json were set; it only fixes the unit.
REFERENCE_S = 3e-3

_SCALAR_INPUT = np.arange(144.0).reshape(12, 12) / 144.0
_ARRAY_INPUT = np.add.outer(np.arange(20.0), np.arange(20.0)) / 400.0


def kernel():
    a = _SCALAR_INPUT.copy()
    total = 0.0
    for _ in range(6):
        for p in range(12):
            for q in range(12):
                x = a[p, q]
                total += x * x + 0.5 * x
                a[q, p] = x * 0.999
    for key in range(8):
        g = np.random.Generator(np.random.Philox(key=key)).standard_normal((20, 20))
        q, _r = np.linalg.qr(g)
        diag = np.einsum("ai,ij,aj->a", q, _ARRAY_INPUT, q, optimize=True)
        total += float(np.sort(diag)[:5].sum())
        hashlib.sha256(q.tobytes()).hexdigest()
    return total


def kernel_seconds():
    """Best of ``REPEATS`` timings of the kernel."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Gauge:
    """Kernel timings, taken when the latest is older than ``EVERY_S``."""

    def __init__(self):
        self.kernel_s = []
        self._at = float("-inf")

    def refresh(self, force=False):
        """Time the kernel if due; return the index of the latest timing."""
        if force or time.perf_counter() - self._at >= EVERY_S:
            self.kernel_s.append(kernel_seconds())
            self._at = time.perf_counter()
        return len(self.kernel_s) - 1

    def scale(self, index):
        """Factor for a time measured between timings ``index`` and
        ``index + 1``."""
        return 2.0 * REFERENCE_S / (self.kernel_s[index] + self.kernel_s[index + 1])
