"""Machine-speed probe: a fixed reference kernel sampled during the run.

On a shared host the CPU's speed drifts by about 20% over seconds to
minutes, and every timing in a run moves with it.  The probe runs a small
fixed kernel (dense-layer passes on 64 rows and on single rows, like the
nets in flowpath, but written here and sharing no code with it) from a
SIGALRM handler every INTERVAL_S seconds.  Dividing an operation's time by
the median kernel time sampled while it ran (the latest sample, for an
operation shorter than the interval) cancels most of the drift.  `now()`
is a clock that excludes the time spent in the kernel, so operations are
timed without it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

_rng = np.random.default_rng(12345)
_W1 = _rng.normal(size=(32, 8))
_W2 = _rng.normal(size=(32, 32)) / 6
_W3 = _rng.normal(size=(8, 32))
_X = _rng.normal(size=(64, 8))

# Kernel seconds that define speed 1.0; slowdown = median kernel time / NOMINAL_S.
NOMINAL_S = 0.008
INTERVAL_S = 0.25


def reference_kernel() -> float:
    """Dense-layer passes on 64 rows, then on single rows (about 60% and 40% of its time)."""
    acc = 0.0
    for _ in range(100):
        h = np.maximum(_X @ _W1.T, 0.0)
        h2 = np.tanh(h @ _W2.T)
        out = h2 @ _W3.T
        d = 0.5 * out
        dh = (d @ _W3) * (1.0 - h2 * h2)
        acc += float(np.exp(-np.abs(out)).sum()) + float((d.T @ h2).sum() + (dh.T @ h).sum())
    row = _X[:1]
    for _ in range(200):
        out = np.tanh(np.maximum(row @ _W1.T, 0.0) @ _W2.T) @ _W3.T
        if not np.all(np.isfinite(out)):
            raise ArithmeticError("reference kernel overflowed")
        acc += float(out.sum())
    return acc


class SpeedProbe:
    """Samples the reference kernel while active; a clock that skips those samples."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0
        self._previous = None

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def mark(self) -> int:
        """Index separating the samples of one phase from the next."""
        return len(self.samples)

    def slowdown(self, start: int) -> float:
        """Median kernel time since mark `start`, else the latest, over NOMINAL_S.

        1.0 when the probe never ran, so unprobed timings stay as measured.
        """
        recent = self.samples[start:] or self.samples[-1:]
        return statistics.median(recent) / NOMINAL_S if recent else 1.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.paused += elapsed

    def __enter__(self) -> "SpeedProbe":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
