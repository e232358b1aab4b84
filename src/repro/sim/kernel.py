"""The discrete-event kernel: event queue, clock, and run loop.

The kernel owns the :class:`~repro.sim.clock.Clock`, a binary heap of slab
entries, the shared :class:`~repro.sim.trace.Trace`, and the
:class:`~repro.sim.rng.RngRegistry`.  All higher layers (transport,
processes, bus, detector, recoverer) are built from these four primitives,
plus the :class:`~repro.sim.supervision.SupervisionClock` that wakes a
failure detector folding its quiet rounds.

One scheduling primitive
------------------------

:meth:`Kernel.schedule_at` / :meth:`Kernel.schedule_after` queue
``callback(*args)``; they return nothing, and a queued event always fires.
An owner that may change its mind stamps the event with a ticket of its
own and has the callback return when the ticket is stale (the process
manager's startup completions, REC's fenced deadline, the workload plane's
deadline lanes).  A repeating activity re-arms itself from its own
callback.

Slab storage and batched dispatch
---------------------------------

The heap holds mutable three-slot **slab entries** ``[when, seq, payload]``,
whose payload stores the event in its cheapest form:

* a bare callable — a no-argument event;
* a ``(callback, args)`` tuple — an event with arguments;
* a ``list`` of the first two forms — a **bucket**: every event scheduled
  for the same timestamp while that timestamp is the newest in the queue.

Scheduling remembers the queue's newest entry (``_tail_when`` /
``_tail_entry``).  When another event is scheduled for exactly that
timestamp — the dominant pattern on the transport hot path, where the FIFO
arrival clamp collapses bursts of channel deliveries onto one instant — the
event is appended to the tail entry's bucket in place: no heap push, no new
entry.  Entries are lists, not tuples, precisely so the payload slot can be
promoted from a single event to a bucket without re-allocating or
re-locating the heap entry.  Dispatch then drains the whole bucket in one
pass, so a run of N same-instant events costs one heap pop instead of N
push/pop pairs.  FIFO order is preserved because a bucket's append order
extends the entry's sequence-number rank, and any *later* entry at the same
timestamp carries a larger ``seq``.

Running: :meth:`Kernel.run` drains the queue (optionally up to a time),
:meth:`Kernel.run_until` does the same until a predicate holds, re-reading
it only after events that called :meth:`Kernel.wake`, and
:meth:`Kernel.step` executes exactly one event (DESIGN.md §10 has the
contract and the wake-site table).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.errors import KernelStoppedError, SimulationError
from repro.sim.clock import Clock
from repro.sim.rng import RngRegistry
from repro.sim.supervision import SupervisionClock
from repro.sim.trace import Trace
from repro.types import SimTime

_TUPLE = tuple
_LIST = list
#: Tail sentinel: NaN never equals any timestamp, not even itself.
_NO_TAIL = float("nan")


class Kernel:
    """Deterministic discrete-event simulation kernel.

    Example
    -------
    >>> kernel = Kernel(seed=1)
    >>> fired = []
    >>> kernel.schedule_after(2.5, fired.append, "a")
    >>> kernel.schedule_after(1.0, fired.append, "b")
    >>> kernel.run()
    >>> fired
    ['b', 'a']
    >>> kernel.now
    2.5
    """

    def __init__(
        self,
        seed: int = 0,
        start_time: SimTime = 0.0,
        trace_capacity: Optional[int] = None,
    ) -> None:
        self.clock = Clock(start_time)
        self.rngs = RngRegistry(seed)
        self.trace = Trace(clock=self.clock, capacity=trace_capacity)
        #: The slab-entry heap (see module docstring for the layout).
        self._queue: List[list] = []
        self._seq = 0
        self._stopped = False
        self._running = False
        #: The one flag the run loop tests per event: set by :meth:`stop`
        #: (for good) and by :meth:`wake` while a :meth:`run_until` is armed
        #: (until the predicate has been re-read).
        self._halt = False
        self._armed = False
        #: Timestamp and entry of the newest scheduled event, for the
        #: same-instant bucket-append fast path.  NaN means "no tail": it
        #: compares unequal to every float (including itself) through the
        #: fast float==float path, so invalidation needs no extra guard on
        #: the hot-path comparison.  Invalidated whenever the tail entry
        #: leaves the heap.
        self._tail_when: SimTime = _NO_TAIL
        self._tail_entry: Optional[list] = None
        #: Events still queued: scheduled minus executed.
        self._live = 0
        #: Number of callbacks executed so far (diagnostics / benchmarks).
        self.events_executed = 0
        #: What wakes a failure detector that folds its quiet rounds.
        self.supervision = SupervisionClock()

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------

    @property
    def now(self) -> SimTime:
        """Current simulated time in seconds."""
        return self.clock.now

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule_at(self, when: SimTime, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at ``when``.

        The event lands as a bare callable (or a ``(callback, args)`` tuple)
        in a slab entry, and same-instant events share one bucket.
        """
        payload = (callback, args) if args else callback
        if when == self._tail_when:
            # Tail entries are in-heap by construction and were validated
            # against the clock when first pushed, so no checks re-run here.
            tail = self._tail_entry
            bucket = tail[2]
            if bucket.__class__ is _LIST:
                bucket.append(payload)
            else:
                tail[2] = [bucket, payload]
            self._live += 1
            return
        if self._stopped:
            raise KernelStoppedError("kernel has been stopped; cannot schedule")
        if when < self.clock._now:
            raise SimulationError(
                f"cannot schedule event at {when!r}, now is {self.now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = [when, seq, payload]
        heapq.heappush(self._queue, entry)
        self._tail_when = when
        self._tail_entry = entry
        self._live += 1

    def schedule_after(self, delay: SimTime, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` after ``delay``."""
        when = self.clock._now + delay
        payload = (callback, args) if args else callback
        if when == self._tail_when:
            tail = self._tail_entry
            bucket = tail[2]
            if bucket.__class__ is _LIST:
                bucket.append(payload)
            else:
                tail[2] = [bucket, payload]
            self._live += 1
            return
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        if self._stopped:
            raise KernelStoppedError("kernel has been stopped; cannot schedule")
        seq = self._seq
        self._seq = seq + 1
        entry = [when, seq, payload]
        heapq.heappush(self._queue, entry)
        self._tail_when = when
        self._tail_entry = entry
        self._live += 1

    def schedule_interval(self, interval: SimTime, callback: Callable[[], None]) -> None:
        """Call ``callback()`` every ``interval`` seconds, first at ``now +
        interval``, for as long as the kernel runs.

        Kept only for the kernel dispatch driver in ``bench/drivers.py``;
        ROADMAP item 1(c) re-points that driver to :meth:`schedule_after`
        and deletes this method.
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval {interval!r}")
        self.schedule_after(interval, self._repeat, interval, callback)

    def _repeat(self, interval: SimTime, callback: Callable[[], None]) -> None:
        # Re-armed before the callback runs, so the next firing ranks ahead
        # of anything the callback schedules for the same instant.
        self.schedule_after(interval, self._repeat, interval, callback)
        callback()

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event; return False if queue is empty.

        The single-step/debug API.
        Waiting for a condition is :meth:`run_until`'s job: a step-and-poll
        loop pays this method's per-item bucket re-push plus one predicate
        read per event.
        """
        queue = self._queue
        if not queue:
            return False
        entry = heapq.heappop(queue)
        when = entry[0]
        if when == self._tail_when:
            self._tail_when = _NO_TAIL
            self._tail_entry = None
        payload = entry[2]
        if payload.__class__ is _LIST:
            # The rest of the bucket (a bucket holds two or more events) goes
            # back as one entry keeping the original seq, so FIFO rank survives.
            entry[2] = payload[1:] if len(payload) > 2 else payload[1]
            heapq.heappush(queue, entry)
            payload = payload[0]
        self._live -= 1
        self.clock.advance_to(when)
        self.events_executed += 1
        if payload.__class__ is _TUPLE:
            payload[0](*payload[1])
        else:
            payload()
        self._settle()
        return True

    def run(self, until: Optional[SimTime] = None) -> None:
        """Run until the queue drains or ``until`` is reached.

        When ``until`` is given the clock is advanced exactly to ``until``
        (unless the kernel was stopped) so successive ``run(until=...)``
        calls observe contiguous time.  :meth:`wake` never shortens a plain
        ``run``: it only acts while a :meth:`run_until` is armed.
        """
        if self._running:
            raise SimulationError("kernel.run() is not reentrant")
        self._dispatch(until)
        if until is not None and not self._stopped and self.clock._now < until:
            self.clock.advance_to(until)
        self._settle()

    def run_until(
        self, predicate: Callable[[], bool], until: Optional[SimTime] = None
    ) -> bool:
        """Run until ``predicate()`` holds; ``False`` if it never did.

        The event-driven wait: ``predicate`` is read once up front and then
        only after an event during which some state owner called
        :meth:`wake` — never between the events in between, which ride the
        batched loop of :meth:`run`.  A predicate may therefore only read
        state whose every false→true transition calls ``wake()`` (DESIGN.md
        §10 lists the wake sites), and must not itself run the kernel.

        Returns ``True`` with the clock at the waking event.  Returns
        ``False`` when nothing is left that could change the answer: the
        kernel was stopped, the queue drained (the clock stays at the last
        event), or the next event lies beyond ``until`` — no event later
        than ``until`` is executed and the clock is left exactly there.
        """
        if self._running or self._armed:
            raise SimulationError("kernel.run_until() is not reentrant")
        try:
            return self._run_until(predicate, until)
        finally:
            self._settle()

    def _run_until(self, predicate: Callable[[], bool], until: Optional[SimTime]) -> bool:
        self._armed = True
        try:
            while not predicate():
                self._halt = self._stopped  # clear the last wake, never a stop
                self._dispatch(until)
                if self._stopped:
                    return False
                if not self._halt:
                    # Not woken: drained, or only later events remain.
                    if until is not None and self.clock._now < until and self._queue:
                        self.clock.advance_to(until)
                    return False
            return True
        finally:
            self._armed = False
            self._halt = self._stopped

    def _settle(self) -> None:
        """Hand control back with every folded loop caught up to now, so
        a caller reads the state stepping would have left (a stopped
        kernel runs nothing more, so nothing is owed)."""
        if not self._stopped:
            self.supervision.settle(self.clock._now)

    def wake(self) -> None:
        """Have an armed :meth:`run_until` re-read its predicate.

        Called by state owners at the transitions predicates read.  The
        dispatch loop returns after the current event — mid-bucket, the
        rest of the same-instant bucket goes back under its original
        sequence number — and resumes if the predicate still fails.  A
        no-op unless a ``run_until`` is armed, so a stray wake can never
        cut a plain ``run(until=...)`` short.
        """
        if self._armed:
            self._halt = True

    def _dispatch(self, until: Optional[SimTime]) -> None:
        """Execute events up to ``until`` or until halted; no clock advance.

        This is the simulator's innermost loop: the heap, heap functions, and
        clock are bound to locals, and the clock is advanced by direct slot
        assignment — safe because the schedulers already reject past times,
        so heap order guarantees monotonicity.
        """
        self._running = True
        queue = self._queue
        pop = heapq.heappop
        push = heapq.heappush
        clock = self.clock
        executed = 0
        try:
            while queue:
                entry = pop(queue)
                when = entry[0]
                if until is not None and when > until:
                    push(queue, entry)
                    break
                if self._halt:
                    push(queue, entry)
                    break
                if when == self._tail_when:
                    self._tail_when = _NO_TAIL
                clock._now = when
                payload = entry[2]
                cls = payload.__class__
                if cls is _TUPLE:
                    executed += 1
                    payload[0](*payload[1])
                elif cls is _LIST:
                    index = 0
                    n = len(payload)
                    while index < n:
                        item = payload[index]
                        index += 1
                        executed += 1
                        if item.__class__ is _TUPLE:
                            item[0](*item[1])
                        else:
                            item()
                        if self._halt and index < n:
                            entry[2] = (
                                payload[index:] if n - index > 1 else payload[index]
                            )
                            push(queue, entry)
                            break
                else:  # bare callable
                    executed += 1
                    payload()
        finally:
            self.events_executed += executed
            self._live -= executed
            self._running = False

    def stop(self) -> None:
        """Halt the simulation; pending events are never executed."""
        self._stopped = True
        self._halt = True
        # Scheduling must raise from now on; the tail-append fast path skips
        # the stopped check, so the tail must die with the kernel.
        self._tail_when = _NO_TAIL
        self._tail_entry = None

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` has been called."""
        return self._stopped

    @property
    def pending_events(self) -> int:
        """Number of events still queued; O(1)."""
        return self._live

    def peek_next_time(self) -> Optional[SimTime]:
        """Time of the next event, or ``None`` if the queue is empty."""
        queue = self._queue
        return queue[0][0] if queue else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Kernel(now={self.now:.6f}, pending={self.pending_events}, "
            f"executed={self.events_executed})"
        )
