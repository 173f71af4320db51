"""Machine description and the calibration that discounts a slowed CPU.

The 2-vCPU virtual machine on which the benchmark's figures were measured
shares its CPU with other tenants.  They slow it by up to 1.6x, in bursts
from a fraction of a second up to whole runs, and process CPU time slows
with wall time, so no statistic of the program's own timings is steady
there.  A short calibration loop slows with them; dividing a stretch of
work's time by the calibration times measured at its two ends gives its
time at the reference speed, the speed at which the calibration takes
``REFERENCE_S``.  The loop is pure Python, so a set-up probe can calibrate
before it imports numpy and the program.

A sweep pass is one public call of about 20 s, so calibrations timed only
between units would see its ends alone (on a repeated 5 s call that raised
the coefficient of variation from 0.055 unscaled to 0.17).
:class:`Calibrated` therefore runs the loop from a ``SIGALRM`` handler every
``CALIBRATE_EVERY_S``, inside a unit or between units, in the measuring
process and on its CPU.  A calibration in a helper process on the other
CPU was tried and dropped: its readings followed that CPU, and the spread
of ``ref-sweep`` throughput over ten seeds went from 0.054 in one set to
0.30 in the next.
"""

from __future__ import annotations

import bisect
import math
import os
import signal
import statistics
import sys
import time

#: calibration time on the uncontended 2-vCPU machine (Python 3.11.7, numpy 2.4.6)
REFERENCE_S = 0.0045
#: wall time between two calibrations
CALIBRATE_EVERY_S = 0.25


def machine() -> str:
    import numpy as np
    import scipy

    return (
        f"nproc={os.cpu_count()} python={sys.version.split()[0]} "
        f"numpy={np.__version__} scipy={scipy.__version__}"
    )


def calibration_s() -> float:
    """Wall time of a fixed loop of Python float and 2x2 complex matrix arithmetic."""
    t0 = time.perf_counter()
    x = 0.0
    for i in range(8_000):
        x += math.sin(i * 1e-3) * math.cos(i * 2e-3)
    a = [[1.0 + 0j, 0j], [0j, 1.0 + 0j]]
    b = [[0.6 + 0j, 0.8j], [0.8j, 0.6 + 0j]]
    for _ in range(4_000):
        a = [[b[0][0] * a[0][0] + b[0][1] * a[1][0], b[0][0] * a[0][1] + b[0][1] * a[1][1]],
             [b[1][0] * a[0][0] + b[1][1] * a[1][0], b[1][0] * a[0][1] + b[1][1] * a[1][1]]]
        x += abs(a[0][0].conjugate() * a[0][1])
    elapsed = time.perf_counter() - t0
    if not math.isfinite(x):
        raise ArithmeticError("calibration loop diverged")
    return elapsed


class Calibrated:
    """Unit times and the calibrations that a timer runs every ``CALIBRATE_EVERY_S``.

    Use as a context manager around the measured units, in the main
    thread.  The handler runs between two bytecodes of whatever the program
    is doing; a calibration that falls inside a unit splits it into
    stretches of work, and its own time is not counted.
    """

    def __enter__(self):
        self._events: list[tuple[float, float, float]] = []  # (start, end, loop time)
        self._units: list[tuple[float, float]] = []
        self._previous = signal.signal(signal.SIGALRM, self._calibrate)
        self._calibrate()
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._calibrate()
        return False

    def _calibrate(self, *_signal):
        start = time.perf_counter()
        loop = calibration_s()
        self._events.append((start, time.perf_counter(), loop))

    def record(self, start: float, end: float):
        self._units.append((start, end))

    def reference_times(self) -> list[float]:
        """Each unit's time scaled to the reference speed; call after the ``with`` block.

        Each stretch of work is scaled by the mean of the calibrations just
        before and just after it.
        """
        events = sorted(self._events)  # a handler can interrupt another one
        starts = [ev[0] for ev in events]
        out = []
        for start, end in self._units:
            i, j = bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)
            marks = events[i - 1:j + 1]  # the one before, those inside, the one after
            edges = [start] + [x for ev in marks[1:-1] for x in ev[:2]] + [end]
            out.append(sum(
                (edges[2 * k + 1] - edges[2 * k]) * REFERENCE_S
                / ((marks[k][2] + marks[k + 1][2]) / 2.0)
                for k in range(len(marks) - 1)
            ))
        return out

    def speed(self) -> float:
        """Machine speed during the run relative to the reference, as the median ratio."""
        return REFERENCE_S / statistics.median(ev[2] for ev in self._events)
