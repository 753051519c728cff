"""How fast the machine runs, sampled while the jobs run.

The shared machine the benchmark was made on changes speed in phases and
bursts that halve or double it, for the program and for any other Python
code alike (see README.md), while a run's CPU time still matches its wall
time.  A `Gauge` samples the speed throughout a timed stretch: a wall-clock
interval timer interrupts the program every INTERVAL_S, and the handler
times a small fixed load of the same kind as the program's work,
dict-of-tuple polynomials with Fraction coefficients multiplied term by
term.  The load never calls courantcalc, so a change to the program does not
change it.  A stretch of measured seconds in which the load took t_1..t_k is
scaled to the speed at which the load takes REFERENCE_S:

    scaled = (measured - sum t_i) * REFERENCE_S * mean(1 / t_i)

The mean of 1 / t_i over samples evenly spaced in wall time is the mean
speed over the stretch.  REFERENCE_S is the median load time sampled inside
the jobs in a fast phase, so in such a phase scaled and measured times agree.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.00042
INTERVAL_S = 0.02
RECENT_S = 0.5


def _poly(step):
    return {(i % 3, (i * step) % 4, (i + step) % 3): Fraction(i * step + 1, i + 2)
            for i in range(12)}


_A, _B = _poly(3), _poly(5)


def _load():
    out = {}
    for m1, c1 in _A.items():
        for m2, c2 in _B.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            out[m] = out.get(m, 0) + c1 * c2


class Gauge:
    """Times the load every INTERVAL_S of wall time while it is running.

        with Gauge() as gauge:
            mark = gauge.mark()
            start = time.perf_counter()
            work()
            seconds = gauge.scaled(time.perf_counter() - start, mark)

    Work that another process does while this one waits, such as a child's
    start, is multiplied by `recent_factor()`, taken just before it.
    """

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        # the collector is off while the load runs, so that a collection of
        # the program's heap, whose cost depends on the program, is not timed
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _load()
        self.samples.append(time.perf_counter() - start)
        if enabled:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return len(self.samples)

    def factor(self, mark):
        """REFERENCE_S * mean(1 / t_i) over the samples since mark.

        A stretch too short to hold a sample takes the latest one before it.
        """
        taken = self.samples[mark:] or self.samples[-1:] or [REFERENCE_S]
        return REFERENCE_S * statistics.fmean(1 / t for t in taken)

    def recent_factor(self):
        """factor() over the samples of the last RECENT_S of this process's
        own work.  Samples taken while this process waits for another one
        read the machine slower than the work of either shows, by about
        12 % in a slow phase."""
        return self.factor(max(0, len(self.samples)
                               - round(RECENT_S / INTERVAL_S)))

    def scaled(self, measured, mark):
        """measured seconds of this process's own work, which began at mark,
        at the reference speed; the loads that interrupted it are taken out."""
        return (measured - sum(self.samples[mark:])) * self.factor(mark)
