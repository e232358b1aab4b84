"""Calibrated seconds: host time scaled by a fixed pure-Python reference loop.

On a small shared box the same code runs 10-35 % faster or slower from one
minute to the next, so raw wall clock cannot resolve a 10 % bound.  The
benchmark therefore brackets every ~0.1 s of timed work with :func:`cal_loop`
-- a fixed mix of the operations the simulator itself is made of (string
format/find, dict get/set, method calls, heap push/pop) -- and reports

    cal_s = wall_s * REFERENCE_CAL_S / mean(cal_before, cal_after)

so a slice that ran while the host was 20 % slow is scaled back by the 20 %
the reference loop lost in the same window.  ``REFERENCE_CAL_S`` is a
checked-in constant (the loop's duration on the box the first baseline was
taken on); it only fixes the unit, ratios between runs do not depend on it.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from typing import Callable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Seconds one :func:`cal_loop` takes on the reference host.
REFERENCE_CAL_S = 0.025

#: Inner iterations of the reference loop (fixes its length, ~25 ms).
CAL_ROUNDS = 18_000


class _Counter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, by: int) -> int:
        self.value += by
        return self.value


def cal_loop(rounds: int = CAL_ROUNDS) -> float:
    """Run the reference loop once; return its wall-clock seconds.

    The working set is bounded (4096 dict keys, a heap that stays half as
    deep as the rounds so far up to 2048) so the loop's length is linear
    in ``rounds`` and identical from call to call.
    """
    table = {}
    heap: List[Tuple[float, int]] = []
    counter = _Counter()
    push, pop = heapq.heappush, heapq.heappop
    start = time.perf_counter()
    for i in range(rounds):
        wire = '<msg type="ping" from="%s" to="%s" seq="%d"/>' % ("fd", "mbus", i & 4095)
        at = wire.find(' seq="')
        key = wire[at + 6 : -3]
        table[key] = table.get(key, 0) + at
        counter.bump(at)
        push(heap, ((i * 7919) % 1013 * 0.001, i))
        if i & 1 or len(heap) > 2048:
            pop(heap)
    return time.perf_counter() - start


def normalise(wall_s: float, cal_before_s: float, cal_after_s: float) -> float:
    """Wall seconds of one slice -> calibrated seconds."""
    return wall_s * REFERENCE_CAL_S / ((cal_before_s + cal_after_s) / 2.0)


class SliceTimer:
    """Times work slices, bracketing every ~0.1 s of work with the reference loop.

    A calibration sample only speaks for the host's speed close to it: on
    the reference box a pass cut into 85 ms slices repeated within 0.7 %,
    the same pass in 0.34 s slices within 3 % and in 1.2 s slices within
    8 %.  Most cells are longer than that and cannot be stepped from
    outside, so while a slice runs a wall-clock interval timer interrupts
    it every :data:`SEGMENT_S`, takes a sample from the signal handler and
    closes a *segment*; each segment's wall time (handler time excluded)
    is scaled by the samples on either side of it.  One sample serves as
    the ``after`` of one segment and the ``before`` of the next.  Garbage
    is collected between slices, outside every timed region.
    """

    #: Host seconds of work between calibration samples inside a slice.
    SEGMENT_S = 0.1

    def __init__(self, segment_s: float = SEGMENT_S) -> None:
        #: 0 disables the in-slice samples (the profiled pass: the handler
        #: would otherwise show up in the profile).
        self.segment_s = segment_s
        #: Per slice: wall seconds (samples excluded) and calibrated seconds.
        self.walls: List[float] = []
        self.cal_s: List[float] = []
        #: Every calibration sample taken, in order.
        self.cals: List[float] = []
        self._last_cal = 0.0
        self._in_slice = False
        self._segment_began = 0.0
        self._wall = 0.0
        self._cal_s = 0.0
        signal.signal(signal.SIGALRM, self._on_tick)

    def open(self) -> None:
        """Take the leading calibration sample (call after set-up)."""
        gc.collect()
        self._last_cal = cal_loop()
        self.cals.append(self._last_cal)

    def _close_segment(self, ended: float) -> None:
        wall = ended - self._segment_began
        after = cal_loop()
        self._wall += wall
        self._cal_s += normalise(wall, self._last_cal, after)
        self.cals.append(after)
        self._last_cal = after

    def _on_tick(self, _signum: int, _frame: object) -> None:
        ended = time.perf_counter()
        if not self._in_slice:
            return
        # Runs to completion before the interrupted slice goes on.
        self._close_segment(ended)
        self._segment_began = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.segment_s)

    def run(self, work: Callable[[], T]) -> T:
        """Run ``work`` as one timed slice and return its result."""
        self._wall = self._cal_s = 0.0
        self._in_slice = True
        signal.setitimer(signal.ITIMER_REAL, self.segment_s)
        self._segment_began = time.perf_counter()
        try:
            result = work()
        finally:
            # Order matters: once ``_in_slice`` is off a late tick is a
            # no-op, so no handler can move ``_segment_began`` past ``ended``.
            self._in_slice = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            ended = time.perf_counter()
        self._close_segment(ended)
        self.walls.append(self._wall)
        self.cal_s.append(self._cal_s)
        gc.collect()
        return result


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) the way the acceptance rule computes them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
