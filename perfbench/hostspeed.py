"""Host-speed probe, and the clock every measured wall is read from.

A shared host changes speed by up to 2x from one second to the next, far
more than any bound a benchmark could hold.  While a timed section runs, a
``SIGALRM`` handler runs :func:`yardstick_loop` every ``PROBE_EVERY_S``
seconds, between two bytecodes of whatever is running, so no thread or
process is involved.  :func:`clock` stops while the probe runs, so walls
read from it leave the probe out, and :meth:`Probe.scale` turns a wall
into seconds on the reference host: ``REF_S`` over the mean probe sample
taken during it.  Bracketing each pass with one longer loop instead left
a per-pass spread of 0.19 on ``deep-cycle`` and 0.16 on ``wide-apps``;
sampling through the pass brought it to 0.06 and 0.03.  The probe does not
touch ``src/``, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, List

PROBE_EVERY_S = 0.05
PROBE_LOOPS = 3000

#: The median :func:`yardstick_loop` time on the host the benchmark was
#: tuned on (2-core x86-64, CPython 3.11); scaled walls read as seconds
#: on that host.
REF_S = 0.0028


def yardstick_loop(loops: int = PROBE_LOOPS) -> float:
    """Seconds one fixed pure-Python workload takes now: integer
    arithmetic, a small heap and dict stores, with the cyclic GC paused so
    that collector settings cannot move it."""
    heap: list = []
    table: dict = {}
    x = 12345
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    try:
        for i in range(loops):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            heapq.heappush(heap, (x & 0xFFFF, i))
            table[x & 0x3FFF] = i
            if len(heap) > 512:
                heapq.heappop(heap)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Probe:
    def __init__(self) -> None:
        #: Every probe sample, in seconds.
        self.samples: List[float] = []
        #: Seconds spent inside the probe.
        self.spent = 0.0
        self._sampling = False

    def sample(self, *_signal) -> None:
        if self._sampling:
            return  # the timer fired during a sample; its time is counted
        self._sampling = True
        start = perf_counter()
        try:
            self.samples.append(yardstick_loop())
        finally:
            self.spent += perf_counter() - start
            self._sampling = False

    def clock(self) -> float:
        """``perf_counter`` without the time the probe has taken."""
        return perf_counter() - self.spent

    @contextmanager
    def running(self) -> Iterator[None]:
        """Sample every ``PROBE_EVERY_S`` seconds while the block runs."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> int:
        """Where the samples of a section about to start begin."""
        return len(self.samples)

    def scale(self, took: float, since: int) -> float:
        """``took``, measured since ``mark()`` returned ``since``, at
        reference host speed.  A closing sample makes sure a section
        shorter than the period has one."""
        self.sample()
        return took * REF_S / statistics.fmean(self.samples[since:])


PROBE = Probe()
clock = PROBE.clock
