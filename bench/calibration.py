"""Machine-speed calibration for timings taken on a shared, noisy host.

On a small shared machine the speed of identical work can swing by a
factor of two within half a minute, because other tenants contend for the
same cores and caches.  The benchmark therefore times a fixed chunk of
standard-library work (``chunk_ns``: exact Fraction products into a dict,
then JSON encoding -- the same kind of work as the program) at regular
intervals throughout a run, and scales each measured time by
``REF_CHUNK_NS`` over the mean chunk time around it.  A scaled time reads
as the time the request would take on a machine where the chunk takes
``REF_CHUNK_NS``.  The chunk never calls the program, so a change to the
program moves the scaled times and never the scale.
"""

from __future__ import annotations

import json
import signal
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import List

REF_CHUNK_NS = 1_500_000
SAMPLE_INTERVAL_S = 0.025
# Samples within one sampling interval of a request set its scale: speed
# changes within a second, and a wider window fits the request less well.
WINDOW_NS = 25_000_000

_GRID = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(5)}


def chunk_ns() -> int:
    """Duration of one fixed chunk of work, in ns."""
    t0 = time.perf_counter_ns()
    acc: dict = {}
    for (i1, j1), c1 in _GRID.items():
        for (i2, j2), c2 in _GRID.items():
            k = (i1 + i2, j1 + j2)
            acc[k] = acc.get(k, 0) + c1 * c2
    json.dumps({f"{i},{j}": str(v) for (i, j), v in sorted(acc.items())})
    return time.perf_counter_ns() - t0


class Sampler:
    """Times a chunk from a SIGALRM handler every ``SAMPLE_INTERVAL_S``.

    The handler runs in the main thread between bytecodes, so samples are
    spread evenly over the run, inside long requests as well as between
    them.  ``spent_ns`` gives the handler time inside an interval, to be
    subtracted from a request's wall time.
    """

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.chunks: List[int] = []
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that lands inside the handler is dropped
            return
        self._busy = True
        t0 = time.perf_counter_ns()
        self.chunks.append(chunk_ns())
        self.starts.append(t0)
        self.ends.append(time.perf_counter_ns())
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.chunks:
            self._sample(None, None)

    def spent_ns(self, t0: int, t1: int) -> int:
        lo, hi = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        return sum(min(e, t1) - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def scale(self, t0: int, t1: int) -> float:
        """REF_CHUNK_NS over the mean chunk time within WINDOW_NS of [t0, t1],
        taking at least the nearest sample on each side."""
        lo = min(bisect_left(self.starts, t0 - WINDOW_NS), bisect_left(self.starts, t0) - 1)
        hi = max(bisect_right(self.starts, t1 + WINDOW_NS), bisect_right(self.starts, t1) + 1)
        window = self.chunks[max(lo, 0):hi]
        return REF_CHUNK_NS * len(window) / sum(window)
