"""Calibrated timings on a host whose speed drifts.

On a shared host the speed of this process drifts by tens of percent within
seconds, and code that calls numpy on small operands slows more than plain
Python.  While a `SpeedClock` is active, a SIGALRM handler runs a short fixed
probe every INTERVAL_S seconds and records how long it took.  The probe
mixes what the workloads do (small dense linear algebra, a mid-sized
matrix-vector loop, elementwise work on a long array, float formatting) and
shares no code with formstab, so a change to formstab never moves it.

A calibrated time is the raw time between two marks, less the probe time
inside it, scaled by NOMINAL_PROBE_S / (median probe time in or next to the
interval): what the interval would read on a host where the probe takes
NOMINAL_PROBE_S.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.025
NOMINAL_PROBE_S = 0.6e-3
MIN_SAMPLES = 9  # an interval with fewer probe samples borrows its neighbours'

_rng = np.random.default_rng(12345)
_SMALL = _rng.standard_normal((4, 4)) - 3.0 * np.eye(4)
_RHS = _rng.standard_normal((4, 2))
_MID = _rng.standard_normal((180, 180)) / 180.0
_VEC = _rng.standard_normal(180)
_LONG = _rng.standard_normal((4000, 4))
_FLOATS = _rng.standard_normal(80).tolist()


def probe() -> float:
    acc = 0.0
    for _ in range(3):
        acc += float(np.max(np.linalg.eigvals(_SMALL).real))
        acc += float(np.linalg.svd(_SMALL, compute_uv=False)[-1])
        acc += float(np.linalg.lstsq(_SMALL, _RHS, rcond=None)[0][0, 0])
        acc += float((_SMALL @ _SMALL)[0, 0])
    y = _VEC
    for _ in range(10):
        y = _MID @ y + _VEC
    acc += float(np.max(np.exp(-0.01 * np.linalg.norm(_LONG - y[0] * _LONG[::-1], axis=1))))
    return acc + len(",".join(repr(v) for v in _FLOATS))


class SpeedClock:
    """Probe samples taken every INTERVAL_S seconds while the clock is active
    (a context manager; the process's SIGALRM timer is its own)."""

    def __init__(self):
        self.took = []  # seconds per probe, in order
        self.spent = 0.0  # total probe seconds

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        probe()
        took = time.perf_counter() - start
        self.took.append(took)
        self.spent += took

    def mark(self):
        return len(self.took), self.spent, time.perf_counter()

    @staticmethod
    def raw(m0, m1) -> float:
        """Seconds between two marks, probe time excluded."""
        return (m1[2] - m0[2]) - (m1[1] - m0[1])

    def calibrated(self, m0, m1) -> float:
        """Raw seconds between two marks, scaled to the nominal probe speed.
        Call it once samples after m1 exist (at the end of a run)."""
        lo, hi = m0[0], m1[0]
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.took)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.took))
        return self.raw(m0, m1) * NOMINAL_PROBE_S / statistics.median(self.took[lo:hi])
