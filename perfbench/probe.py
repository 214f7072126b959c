"""Sampling the host's speed while a pass runs.

The benchmark's host is a few virtual cores of a shared machine.  Each core
switches, every few seconds, between a fast state and a slow one in which
the same code takes up to 1.65 times as long (another tenant on the same
physical core); the cores switch independently of each other.  A run of a
workload lasts seconds, so its raw time mostly counts how long it spent in
the slow state.

``Sampler`` times a tiny fixed probe every INTERVAL_S seconds on the thread
that runs the pass, from a SIGALRM handler, so the probe sees the same core
in the same state as the work around it.  A run's slowdown is the mean
probe time during the run over REFERENCE_S: about 1 in the fast state, more
in the slow one.  The run's time divided by it is its time at the reference
speed.  The probe uses numpy only, never chflow, so a change to chflow
cannot move it; it costs about 0.5% of the pass.
"""

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05

# About the fastest twentieth of probe times on a 2-core Intel Xeon VM
# (Sapphire Rapids, numpy with one BLAS thread).  It only sets the scale.
REFERENCE_S = 2.1e-4

# The probe mixes the kinds of work chflow does: small FFTs, dense
# trigonometric evaluation, an interpreter loop and number formatting.
_SIGNAL = np.cos(np.linspace(0.0, 40.0, 256))
_PTS = np.linspace(-10.0, 10.0, 64)
_WAVES = 0.31 * np.arange(33)
_ROW = [0.1 * i + 1e-3 for i in range(16)]


def _probe():
    y = _SIGNAL
    for _ in range(4):
        y = np.fft.irfft(np.fft.rfft(y) * 0.999, _SIGNAL.size)
    theta = np.outer(_PTS, _WAVES)
    y = np.cos(theta).sum() - np.sin(theta).sum()
    total = 0
    for i in range(500):
        total += i * i
    return ",".join(f"{v:.17g}" for v in _ROW), y, total


class Sampler:
    """Times _probe() every INTERVAL_S seconds while the block runs."""

    def __init__(self):
        self.samples = []            # (end time, duration) of each probe
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        _probe()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start, end):
        """Mean probe time between perf_counter times start and end, over
        REFERENCE_S; NaN when no probe ended in that window."""
        durations = [d for t, d in self.samples if start <= t <= end]
        return statistics.fmean(durations) / REFERENCE_S if durations else math.nan
