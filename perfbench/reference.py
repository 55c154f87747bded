"""A fixed reference loop that measures how fast the machine runs right now.

The benchmark shares a small virtual machine with other tenants, and the
speed of Python-level code on it changes by up to a half, in spells from
seconds to minutes, as their load comes and goes.  Every measured pass is
therefore timed next to this loop, and the passes of the Python-bound
workloads are scaled to the speed at which the loop takes ``NOMINAL_S``.
The loop uses numpy and scipy directly and never ``qdsa``, so no change to
the program can move it.  Its mix is that of those workloads: Python-level
work around tiny complex matrices, and two medium dense kernels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

NOMINAL_S = 0.0015  # one loop in a quiet spell of a 2-vCPU Xeon VM, BLAS at 1 thread
REPEATS = 5         # loops per sample; the sample is their median

_rng = np.random.default_rng(20140228)
_SMALL = [_rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n))
          for n in (2, 3, 4, 8) for _ in range(3)]
_MEDIUM = _rng.standard_normal((48, 48)) + 1j * _rng.standard_normal((48, 48))


def _loop() -> float:
    start = time.perf_counter()
    acc = 0.0
    for m in _SMALL:
        h = m + m.conj().T
        w, v = np.linalg.eigh(h)
        s = np.linalg.svd(m, compute_uv=False)
        acc += float(s[0]) + float(w[-1]) + abs(np.kron(m[:2, :2], v[:2, :2]).sum())
        table = {i: i * 0.5 for i in range(40)}
        acc += sum(x for k, x in table.items() if k % 3)
    acc += abs(scipy.linalg.expm(_MEDIUM / 40)[0, 0])
    acc += np.linalg.svd(_MEDIUM, compute_uv=False)[0]
    if not np.isfinite(acc):
        raise RuntimeError("reference loop produced a non-finite value")
    return time.perf_counter() - start


def sample(repeats: int = REPEATS) -> float:
    """Median time of ``repeats`` reference loops, in seconds."""
    return statistics.median(_loop() for _ in range(repeats))


class Scaler:
    """Scales operation times to the machine speed at which the loop takes
    ``NOMINAL_S``, by the mean of the reference samples taken just before
    and just after each operation."""

    def __init__(self):
        self.samples = []
        self.before = None

    def mark(self):
        """Take the sample that the next operation counts as its "before"."""
        self.before = sample()
        self.samples.append(self.before)

    def scale(self, seconds: float) -> float:
        """Scale an operation that ended just now and began after the last
        sample; its "after" sample is the next operation's "before"."""
        after = sample()
        self.samples.append(after)
        local = (self.before + after) / 2
        self.before = after
        return seconds * NOMINAL_S / local
