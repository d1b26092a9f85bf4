"""Machine speed, for reporting times at a reference speed.

The speed of a shared virtual machine moves by a fifth from minute to
minute, and by more from one second to the next: on a 2-vCPU Xeon VM,
the Fraction part of snippet_time() ran from 0.45 to 0.97 ms within
seconds, and CPU time moved alike.  So every time the benchmark reports
is a measured time times REFERENCE_S over snippet_time() measured while,
or right beside, the work ran.  That cut the spread of 20 s windows of
corpus passes there from 18% to 3%.  Fraction arithmetic slowed more
than a tight integer loop (2.0 against 1.7 times within one minute), so
the snippet mixes the two, about 60:40 by time, as solhom's own work
does.  REFERENCE_S is snippet_time() on that VM when it runs fast, so
reported times read as wall times there.  The snippet does not touch
solhom, so a change to solhom moves reported times as much as wall
times.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0008
SAMPLE_INTERVAL_S = 0.1


def snippet_time() -> float:
    """Time of one run of a fixed snippet of Fraction and list arithmetic,
    with the garbage collector off so that the heap of the code being
    measured does not reach into it."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 120):
            acc += Fraction(i, 7) * Fraction(3, i + 1)
        rows = [[(i * j) % 11 for j in range(12)] for i in range(12)]
        sum(map(sum, rows))
        sum(1 for d in range(1, 8000) if 1000003 % d == 0)
        return time.perf_counter() - start
    finally:
        gc.enable()


def calibrate() -> float:
    """Median of three snippet times: the speed right now."""
    return statistics.median(snippet_time() for _ in range(3))


class Sampler:
    """Times the snippet every SAMPLE_INTERVAL_S while a piece of work
    runs in this process, from a SIGALRM handler between bytecodes, so
    that the samples give the speed the work itself ran at."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(snippet_time())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
