"""Time a region of code at a fixed reference speed of the machine.

On the 2-vCPU reference machine the speed of identical Python work moves
between two levels about 1.4x apart, for stretches of a fraction of a
second to a minute (other tenants of the host: no steal time shows, and
CPU time tracks wall time).  A plain wall time of a pass therefore
depends on how much of it ran in the slow level, which changes from one
run to the next by more than a regression worth catching.

``Meter`` times a region and, every ``INTERVAL_S`` of wall time, runs a
fixed calibration loop from a ``SIGALRM`` handler.  Each stretch of work
between two calibrations is weighted by ``REF_S`` over the time of the
calibration that closes it, so a stretch run while the machine is 1.4x
slow counts for 1/1.4 of its wall time.  ``scaled_s`` is the sum: the
region's time at the reference speed, calibration excluded.
``elapsed_s`` is the plain wall time of the region, calibration
included.  Only the calling process is calibrated; the work of worker
processes it waits for is scaled by its speed.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01
# Median time of ``calibrate`` inside a pass that ran at the fast level on
# the reference machine (Intel Xeon VM, 2 vCPUs, CPython 3.11.7), so that
# there a fast stretch counts at about its wall time; it only sets the unit.
REF_S = 1.3e-4


def calibrate() -> tuple[float, float]:
    """Start and end time of a fixed piece of work: integer arithmetic,
    then small-object work (tuples, a dict, a set, a sort).  The slow level
    slows the first less and the second more than it slows the program;
    their sum follows the program to within a few per cent."""
    start = time.perf_counter()
    s = 0
    for i in range(1000):
        s += i * i % 7
    edges = set()
    for v, ws in {v: ((v + 1) % 40, v * 3 % 40) for v in range(40)}.items():
        for w in ws:
            edges.add((min(v, w), max(v, w)))
    sorted(edges)
    return start, time.perf_counter()


def scaled_seconds(samples: list[tuple[float, float]]) -> float:
    """Sum over stretches between consecutive calibrations ``(start, end)``
    of the stretch's duration times ``REF_S`` / the closing calibration's."""
    return sum((start - prev_end) * REF_S / (end - start)
               for (_, prev_end), (start, end) in zip(samples, samples[1:]))


class Meter:
    """Context manager: calibrates on entry, every ``INTERVAL_S`` and on
    exit; sets ``scaled_s`` and ``elapsed_s`` when the region ends."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.scaled_s = self.elapsed_s = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if not self._busy:  # a late signal must not nest inside a calibration
            self._busy = True
            self.samples.append(calibrate())
            self._busy = False

    def __enter__(self) -> "Meter":
        self.samples = [calibrate()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(calibrate())
        self.scaled_s = scaled_seconds(self.samples)
        self.elapsed_s = self.samples[-1][0] - self.samples[0][1]
