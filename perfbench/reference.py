"""Machine-speed reference for the bounded timings.

The benchmark runs on shared hosts whose speed drifts by a third within
seconds. On a 2-vCPU x86-64 box the median one2many+CTC train step read
137 ms in one 20 s window and 201 ms in another, with no change to the
program and no steal time reported to the guest. The same contention slows
a fixed numpy-and-Python kernel by the same factor. So every timed chunk of
work is bracketed by runs of ``kernel``, and the bounded metrics report
``wall time * NOMINAL_S / kernel time``: the time the chunk would take on a
host where the kernel takes ``NOMINAL_S``. Over ten runs of each workload
the raw median step or call spread by 0.12-0.23 (quartile distance over
median) and the nominal one by 0.03-0.05. Raw wall times are printed beside
every metric.

The kernel is the benchmark's own code. It calls no deskst function, so a
change to deskst moves the normalized times as it moves the raw ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# About the kernel's time on an unloaded 2-vCPU x86-64 host (OpenBLAS 0.3.31,
# one thread), so nominal and raw times read alike on such a host.
NOMINAL_S = 0.0025

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(16, 48, 32))
_W_IN = _rng.normal(size=(32, 256)) * 0.1
_W_REC = _rng.normal(size=(64, 256)) * 0.1
_KEYS = [(float(v), tuple(int(i) for i in _rng.integers(0, 16, 4))) for v in _rng.normal(size=400)]


def kernel() -> None:
    """An LSTM-shaped loop of small numpy ops and a Python tuple sort: the
    same mix of interpreter and small-BLAS work as a deskst step."""
    h = np.zeros((16, 64))
    c = np.zeros((16, 64))
    for t in range(_X.shape[1]):
        z = _X[:, t] @ _W_IN + h @ _W_REC
        i = 1.0 / (1.0 + np.exp(-z[:, :64]))
        f = 1.0 / (1.0 + np.exp(-z[:, 64:128]))
        o = 1.0 / (1.0 + np.exp(-z[:, 192:]))
        c = f * c + i * np.tanh(z[:, 128:192])
        h = o * np.tanh(c)
    sorted(_KEYS, key=lambda k: (-k[0], k[1]))


class Meter:
    """Times chunks of work, bracketing each with kernel runs.

    A chunk's kernel time is the mean of the runs just before and just after
    it, so a change of host speed during the chunk counts half. ``raw`` and
    ``nominal`` accumulate the chunks' wall seconds and their nominal-speed
    seconds; the kernel's own time is in neither.
    """

    def __init__(self):
        self.raw = 0.0
        self.nominal = 0.0
        self._kernel_s = _kernel_time()

    def time(self, fn, *args, **kwargs):
        """Run ``fn`` and return (result, wall seconds, nominal seconds)."""
        start = perf_counter()
        out = fn(*args, **kwargs)
        wall = perf_counter() - start
        before, self._kernel_s = self._kernel_s, _kernel_time()
        nominal = wall * NOMINAL_S / (0.5 * (before + self._kernel_s))
        self.raw += wall
        self.nominal += nominal
        return out, wall, nominal


def _kernel_time() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start
