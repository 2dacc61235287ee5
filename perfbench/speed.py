"""Machine-speed correction for timings on a shared host.

On a few cores of a shared host the same work can take twice as long
from one second to the next, and a fixed pure-Python loop slows by about
as much as votekit does.  So every timed call is measured against a
reference loop (interpreter, Fraction and numpy work, none of it
votekit's): once before the call, once after, and every TICK_S seconds
during it, run from a SIGALRM handler in the same thread and so on the
same core as the call.  The loops' own time is taken out of the call's
wall time, and the rest is rescaled to a machine on which the loop
takes REFERENCE_S seconds:

    scaled = (wall - loops during) * REFERENCE_S / mean(all its loops)

A change to votekit moves the scaled figure as it moves the wall time;
a change in the host's speed mostly cancels.  It holds only for work
done in this process: a loop here cannot see the cores that other
processes run on.  Wall seconds are printed beside the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# The reference loop's time on a nominal machine: about its median on
# one 2-vCPU Xeon VM, so scaled seconds read close to wall seconds there.
REFERENCE_S = 0.015
# Interval of the loops run during a call; at about 15 ms a loop, they
# add about 3% to its wall time, all of which is taken out again.
TICK_S = 0.5
# A loop that ended less than this long before a call also serves as
# the loop before it, so back-to-back calls share one.
REUSE_S = 0.25

_ARRAY = np.arange(75_000, dtype=np.int64)


def reference_loop() -> float:
    """Seconds one fixed piece of work takes right now."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(25_000):
        d[i % 1000] = d.get(i % 1000, 0) + 3 * i
    s = Fraction(0)
    for i in range(1, 1500):
        s += Fraction(i % 97 + 1, i % 89 + 1)
    a = _ARRAY
    for _ in range(5):
        a = (a * 3 + 7) % 1_000_003
    np.sort(a)
    return time.perf_counter() - t0


class Scaler:
    """Times calls and rescales them by the reference loops around and
    inside each.  Build it in the main thread: it installs a SIGALRM
    handler for the life of the process."""

    def __init__(self) -> None:
        self.loops: list[float] = []
        self._during: list[float] | None = None  # loops of the running call
        self._recent = (0.0, float("-inf"))  # (loop seconds, when it ended)
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if self._during is not None:
            self._during.append(reference_loop())

    def _loop(self) -> float:
        took = reference_loop()
        self._recent = (took, time.perf_counter())
        return took

    def timed(self, fn, *args, **kwargs):
        """Run fn; return (scaled seconds, wall seconds, result).  An
        exception from fn propagates, with the two times left in `last`."""
        before, ended = self._recent
        if time.perf_counter() - ended > REUSE_S:
            before = self._loop()
        during: list[float] = []
        self._during = during
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._during = None
            elapsed = time.perf_counter() - t0
            after = self._loop()
            loops = [before, *during, after]
            self.loops += loops
            wall = elapsed - sum(during)
            self.last = wall * REFERENCE_S / statistics.fmean(loops), wall
        return (*self.last, result)
