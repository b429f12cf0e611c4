"""Host-speed probe: how fast the measuring core runs fixed work, sampled during a measurement.

The benchmark host shares its cores with other tenants. On a shared 2-core
x86_64 host their load slowed the same pipeline run by up to 2x, in
phases lasting from seconds to minutes, and the two cores' phases were only
loosely correlated (r = 0.44). A probe therefore samples the core that does
the measured work: every ``INTERVAL`` seconds of wall time SIGALRM
interrupts the measured process, and the handler times one burst of fixed
Python and numpy work. The burst is benchmark code, independent of ebae, so
the mean burst time tracks the host's speed during the measurement.

Each sample runs the burst twice and times only the second pass. A single
cold pass mostly measured the cache state the interrupted code left behind:
in alternating segments of one process on that host its mean time was
1.6-1.8x higher during a pure-Python loop or long ``np.sort`` calls than
during an ebae pipeline, and a sampler in a separate process on the same
core showed it too. The timed warm pass stayed within 2-12% across those
five code mixes (albrecht and china_screen pipelines, small-array numpy,
pure Python, long C calls) in five such comparisons (7.0% over six rounds
with the settings below), with no mix consistently slower, and within
0-3.6% between the two pipelines. So a change to ebae's mix of interpreter
and numpy time hardly moves the speed factor. ``check_probe.py`` repeats
the comparison.

``Probe.at_reference_speed`` turns a wall-time interval into seconds at
the reference speed, at which one timed pass takes ``REFERENCE_BURST_S``,
window by window. The rescaling is exact only for code that slows in
proportion to the pass. Over 20 runs each at speed factors 0.85-1.36 the
pipelines' wall time followed the factor with exponents 0.98 (albrecht),
0.86 (china_screen) and 0.95 (mixed_screen), correlation 0.95 or more.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL = 0.05
WINDOW = 20          # samples per local speed factor, about a second of wall time
# Share of the fastest passes a speed factor averages. Under load the slowest
# passes hold interruptions the measured code does not see in the same share:
# keeping 75% rather than 95% cut the ten-run spread of pipeline_s from 0.032
# to 0.022 on albrecht and from 0.038 to 0.025 on mixed_screen (same runs).
KEEP = 0.75
# About that average over ~60 benchmark runs on that 2-core Intel Xeon x86_64 host
# (Python 3.11, numpy 2.4) under its usual shared load, at which figures are
# seconds on that host. Near the usual load the factor stays near 1, so code that
# slows less or more than the pass under load is rescaled with little error.
REFERENCE_BURST_S = 1.7e-4

_X = np.random.default_rng(0).random((24, 7))


def burst():
    """Seconds taken by one fixed unit of interpreter and small-array work.

    It avoids BLAS calls, whose thread pool would also measure the other core.
    """
    start = perf_counter()
    acc = 0.0
    for i in range(200):
        acc += (i % 7) * 0.5
    for j in range(20):
        diff = _X - _X[j % len(_X)]
        int(np.argmin((diff * diff).sum(axis=1)))
    return perf_counter() - start


def speed_factor_of(samples):
    """Mean of the fastest ``KEEP`` of the timed passes over the reference pass.

    1.0 at reference speed, >1 slower.
    """
    kept = sorted(samples)[:max(1, int(KEEP * len(samples)))]
    return statistics.fmean(kept) / REFERENCE_BURST_S


class Probe:
    """Context manager that samples ``burst()`` on a wall-clock timer."""

    def __init__(self):
        self.samples = []      # timed pass of each sample
        self.ends = []         # perf_counter() when each sample ended
        self.busy = []         # wall time each sample took, both passes

    @property
    def busy_s(self):
        return sum(self.busy)

    def _sample(self, signum=None, frame=None):
        start = perf_counter()
        burst()                        # loads the burst's code and data into cache
        self.samples.append(burst())
        self.ends.append(perf_counter())
        self.busy.append(self.ends[-1] - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._sample()
            self.busy[-1] = 0.0        # taken after the measurement

    def speed_factor(self):
        return speed_factor_of(self.samples)

    def at_reference_speed(self, start, end):
        """Wall seconds from ``start`` to ``end``, less the probe's own samples, at reference speed.

        The host's load changes within seconds, so each window of ``WINDOW``
        samples rescales the wall time up to its last sample by its own
        factor; the last window runs to ``end``.
        """
        total, edge = 0.0, start
        for i in range(0, len(self.samples), WINDOW):
            window = slice(i, i + WINDOW)
            stop = end if i + WINDOW >= len(self.samples) else self.ends[i + WINDOW - 1]
            total += (stop - edge - sum(self.busy[window])) / speed_factor_of(self.samples[window])
            edge = stop
        return total
