"""A fixed numpy workload that reads how fast the machine runs right now.

The benchmark runs on shared hosts whose speed swings by up to 1.7x for tens
of seconds at a time, in CPU time as much as in wall time, so a median of raw
times says more about the neighbours than about deskseq.  Every timed sample
is therefore taken between two gauge readings and scaled by
`REFERENCE_MS / (mean of the two readings)`: the figure is the time the
sample would have taken at the speed at which the gauge takes
`REFERENCE_MS`.  The gauge is matmuls, tanh and a softmax over arrays of
the sizes deskseq works on, in batches and one item at a time, and it calls
nothing of deskseq, so a change to the program moves the figures in full
and a change of the machine's speed cancels.
"""

from __future__ import annotations

import time

import numpy as np

now = time.perf_counter

# about the gauge's median time on a shared 2-core 2.1 GHz Xeon VM with
# scipy-openblas 0.3.31 and numpy 2.4, so the figures read close to that
# machine's milliseconds
REFERENCE_MS = 6.0

# a training batch: 8 sequences of 24 tokens, width 64, 4 heads
_A = np.linspace(-1.0, 1.0, 192 * 64).reshape(192, 64)
_X = np.linspace(-2.0, 2.0, 8 * 4 * 24 * 24).reshape(8, 4, 24, 24)
# one dev item of 5 tokens
_A1 = np.linspace(-1.0, 1.0, 5 * 64).reshape(5, 64)
_X1 = np.linspace(-2.0, 2.0, 4 * 5 * 5).reshape(4, 5, 5)
_W = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)


def _layer(a, x):
    h = np.tanh(a @ _W)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return h.T @ a


def read():
    """Seconds the gauge workload takes now: array work on a training batch,
    then per-call overhead on single items, about half of the time each."""
    t = now()
    for _ in range(10):
        _layer(_A, _X)
    for _ in range(200):
        _layer(_A1, _X1)
    return now() - t


class Gauge:
    """Readings taken between timed samples.  `start` before the first
    sample of a series, `scale` after each one."""

    def __init__(self):
        self.readings = []
        self.spent = 0.0  # seconds spent reading, for callers that time spans
        self._last = None

    def _read(self):
        t = now()
        r = read()
        self.readings.append(r)
        self.spent += now() - t
        return r

    def start(self):
        self._last = self._read()

    def scale(self):
        """The factor that turns the sample just taken into reference time:
        REFERENCE_MS over the mean of the readings before and after it."""
        r = self._read()
        factor = REFERENCE_MS / 1000 / ((self._last + r) / 2)
        self._last = r
        return factor

    def scale_since(self, mark):
        """The factor for a span during which readings `mark:` were taken."""
        taken = self.readings[mark:]
        return REFERENCE_MS / 1000 / (sum(taken) / len(taken))
