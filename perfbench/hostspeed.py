"""Host-speed sampling, so that job times can be given at a reference speed.

On a shared machine the CPU speed a process gets swings by up to 2x, within
a second as well as over minutes, and wall time equals CPU time, so neither
clock shows it.  `Sampler` runs a fixed kernel from a SIGALRM timer every
INTERVAL_S while jobs run.  The kernel does Fraction arithmetic and dict
updates, the program's own kind of work, and never calls ergocubes, so a
change to the program moves the job times and not the kernel's.  A job's
time, less the kernel runs inside it, is rescaled by REFERENCE_S over the
mean kernel time during the job: the time the job would take on a host
where the kernel takes REFERENCE_S.  The mean, not the median, because a
job's time adds up the host's slowness over its whole length.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# The kernel's time at the reference host speed (about that of a 2-core
# shared x86-64 sandbox with Python 3.11 at a typical moment).
REFERENCE_S = 0.0006
INTERVAL_S = 0.02
# A job shorter than this many intervals is rescaled by the kernel runs
# just before it as well.
MIN_SAMPLES = 5


def kernel():
    total, buckets = Fraction(0), {}
    for i in range(1, 60):
        q = Fraction(i % 13 + 1, i % 97 + 1)
        total += q * q
        buckets[i % 50] = buckets.get(i % 50, Fraction(0)) + q
    return total, len(buckets)


class Sampler:
    """Runs `kernel()` every INTERVAL_S of wall time while active and keeps
    the seconds each run took.  Use as a context manager."""

    def __init__(self):
        self.seconds = []

    def _run(self, *_):
        begin = time.perf_counter()
        kernel()
        self.seconds.append(time.perf_counter() - begin)

    def __enter__(self):
        for _ in range(MIN_SAMPLES):
            self._run()
        self._previous = signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.seconds)

    def rescale(self, elapsed: float, first: int, last: int) -> float:
        """`elapsed` seconds that ran from mark `first` to mark `last`, less
        the kernel runs inside them, at the reference speed."""
        inside = self.seconds[first:last]
        window = self.seconds[min(first, max(0, last - MIN_SAMPLES)) : last]
        return (elapsed - sum(inside)) * REFERENCE_S * len(window) / sum(window)

    def mean(self) -> float:
        return sum(self.seconds) / len(self.seconds)
