"""Host speed, read through a run, so that times can be stated at one speed.

The shared virtual machines the benchmark runs on change speed by up to
1.8x over tens of seconds, and CPU time slows with wall time, so a run that
lands in a slow stretch reads slow whatever the program does.  A fixed
piece of pure-Python work, the reference task, is timed between the
program's invocations; a time measured between two readings is scaled by
``REFERENCE_S`` over the task's mean time in those readings.  The task is
the benchmark's own code and never calls the program, so a change to the
program moves its scaled times exactly as much as its raw ones.
"""

from __future__ import annotations

import gc
import time
from bisect import bisect_left, bisect_right

# Seconds the reference task takes at the speed that times are stated at:
# about its time when the 2-core host the benchmark was built on runs fast.
REFERENCE_S = 0.0015
READ_EVERY_S = 0.2
REPEATS = 3


def reference_task() -> None:
    """The product of two polynomials held as dicts from exponent tuples to
    int coefficients: the kind of work the program's kernel does."""
    p = {(i, j, 1): (i + 1) * 7 - j for i in range(9) for j in range(9)}
    out: dict = {}
    for (a, b, z), c in p.items():
        for (d, e, y), f in p.items():
            key = (a + d, b + e, z + y)
            out[key] = out.get(key, 0) + c * f


class HostSpeed:
    """Readings of the reference task, each the fastest of ``REPEATS``.

    The collector is paused while the task runs, so that a program that
    changes the collector's settings does not change the readings.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.read()

    def read(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                reference_task()
                best = min(best, time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.at.append(time.perf_counter())
        self.took.append(best)

    def read_if_due(self) -> None:
        if time.perf_counter() - self.at[-1] >= READ_EVERY_S:
            self.read()

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` at the reference speed, from the last reading
        before ``start`` and the first after ``end``; read once more after
        the last interval before asking."""
        before = max(bisect_right(self.at, start) - 1, 0)
        after = min(bisect_left(self.at, end), len(self.at) - 1)
        return (end - start) * REFERENCE_S * 2 / (self.took[before] + self.took[after])
