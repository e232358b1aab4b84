"""The discrete-event kernel: event queue, clock, and run loop.

The kernel owns the :class:`~repro.sim.clock.Clock`, a binary heap of slab
entries (see :mod:`repro.sim.event`), the shared
:class:`~repro.sim.trace.Trace`, and the :class:`~repro.sim.rng.RngRegistry`.
All higher layers (transport, processes, bus, detector, recoverer) are built
from these four primitives.

Queue layout and batched dispatch
---------------------------------

The heap holds mutable ``[when, seq, payload]`` slab entries.  A payload is
a single event (bare callable, ``(callback, args)`` tuple,
:class:`~repro.sim.event.EventHandle`, or
:class:`~repro.sim.event.RepeatHandle`) or a *bucket* — a plain list of
same-instant events in FIFO order.

Scheduling remembers the queue's newest entry (``_tail_when`` /
``_tail_entry``).  When another event is scheduled for exactly that
timestamp — the dominant pattern on the transport hot path, where the FIFO
arrival clamp collapses bursts of channel deliveries onto one instant — the
event is appended to the tail entry's bucket in place: no heap push, no new
entry, no handle allocation.  Dispatch then drains the whole bucket in one
pass, so a run of N same-instant events costs one heap pop instead of N
push/pop pairs.  FIFO order is preserved because a bucket's append order
extends the entry's sequence-number rank, and any *later* entry at the same
timestamp carries a larger ``seq``.

Three scheduling APIs, cheapest first:

* :meth:`schedule_at` / :meth:`schedule_after` — fire-and-forget, returns
  nothing, allocates no handle.  Internal hot paths (channel delivery,
  detector judges) use this.
* :meth:`schedule_interval` — a periodic timer re-armed by the dispatch
  loop itself: one heap push per firing, zero per-firing allocation.
* :meth:`call_at` / :meth:`call_after` / :meth:`call_soon` — for the
  caller that keeps the handle: one :class:`EventHandle` per event, so the
  event can be cancelled.  A caller that would drop it schedules handle-free.

All three interleave arbitrarily with identical time/FIFO semantics.

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
from repro.sim.event import (
    EventHandle,
    RepeatHandle,
    payload_live_item_count,
    payload_live_items,
)
from repro.sim.rng import RngRegistry
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
    >>> _ = kernel.call_after(2.5, fired.append, "a")
    >>> _ = kernel.call_after(1.0, fired.append, "b")
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
        #: leaves the heap or the heap is rebuilt.
        self._tail_when: SimTime = _NO_TAIL
        self._tail_entry: Optional[list] = None
        #: Live (non-cancelled) events still queued; kept exact by the
        #: schedulers, the run loop, and handle cancellation so
        #: :attr:`pending_events` is O(1) instead of an O(n) sweep.
        self._live = 0
        #: Cancelled handles still sitting in the queue, awaiting either a
        #: lazy skip at dispatch or a bulk compaction.
        self._cancelled_in_queue = 0
        #: Number of callbacks executed so far (diagnostics / benchmarks).
        self.events_executed = 0

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------

    @property
    def now(self) -> SimTime:
        """Current simulated time in seconds."""
        return self.clock.now

    # ------------------------------------------------------------------
    # scheduling — no-handle fast path
    # ------------------------------------------------------------------

    def schedule_at(self, when: SimTime, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at ``when``; no cancellation handle.

        The hot-path scheduler: events land as a bare callable (or a
        ``(callback, args)`` tuple) in a slab entry, and same-instant events
        share one bucket.  Use :meth:`call_at` when the event may need to be
        cancelled.
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
        """Schedule ``callback(*args)`` after ``delay``; no handle."""
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

    def schedule_interval(self, interval: SimTime, callback: Callable[[], None]) -> RepeatHandle:
        """Arm a periodic timer: ``callback()`` every ``interval`` seconds.

        First firing is at ``now + interval``.  The dispatch loop re-arms
        the timer in place (same slab entry, same sequence number), so a
        periodic hot loop costs one heap push per firing and no allocation.
        Returns a :class:`RepeatHandle`; cancelling it stops the timer.
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval {interval!r}")
        if self._stopped:
            raise KernelStoppedError("kernel has been stopped; cannot schedule")
        handle = RepeatHandle(interval, callback, self)
        seq = self._seq
        self._seq = seq + 1
        entry = [self.clock._now + interval, seq, handle]
        heapq.heappush(self._queue, entry)
        # Repeat entries must never receive bucket appends (the dispatch
        # loop re-arms them whole), so they cannot serve as the tail.
        self._tail_when = _NO_TAIL
        self._tail_entry = None
        self._live += 1
        return handle

    # ------------------------------------------------------------------
    # scheduling — cancellable handles
    # ------------------------------------------------------------------

    def call_at(self, when: SimTime, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run at absolute time ``when``."""
        if self._stopped:
            raise KernelStoppedError("kernel has been stopped; cannot schedule")
        if when < self.clock._now:
            raise SimulationError(
                f"cannot schedule event at {when!r}, now is {self.now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(when, seq, callback, args, self)
        if when == self._tail_when:
            tail = self._tail_entry
            bucket = tail[2]
            if bucket.__class__ is _LIST:
                bucket.append(handle)
            else:
                tail[2] = [bucket, handle]
        else:
            entry = [when, seq, handle]
            heapq.heappush(self._queue, entry)
            self._tail_when = when
            self._tail_entry = entry
        self._live += 1
        return handle

    def call_after(self, delay: SimTime, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self.clock._now + delay, callback, *args)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at the current instant (FIFO order)."""
        return self.call_at(self.clock._now, callback, *args)

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------

    def _note_cancel(self) -> None:
        """Bookkeeping for handle cancellation (kernel-internal).

        Adjusts the live/cancelled counters and, when cancelled handles
        dominate the queue, compacts it in one O(n) pass instead of paying a
        lazy skip per stale event on every subsequent dispatch.
        """
        self._live -= 1
        self._cancelled_in_queue += 1
        if self._cancelled_in_queue > 64 and self._cancelled_in_queue > self._live:
            # In-place slice assignment keeps the list identity stable: the
            # run loop may hold a reference to the same list object.
            kept = []
            for entry in self._queue:
                payload = entry[2]
                if payload.__class__ is _LIST:
                    live = payload_live_items(payload)
                    if live:
                        entry[2] = live if len(live) > 1 else live[0]
                        kept.append(entry)
                elif payload_live_item_count(payload):
                    kept.append(entry)
            self._queue[:] = kept
            heapq.heapify(self._queue)
            self._cancelled_in_queue = 0
            self._tail_when = _NO_TAIL
            self._tail_entry = None

    def _drop_cancelled(self) -> None:
        """Decrement the stale counter without letting it go negative.

        A compaction triggered from inside a bucket drain resets the counter
        while cancelled items may still sit in the (already popped) bucket;
        flooring at zero keeps the compaction threshold meaningful.
        """
        if self._cancelled_in_queue > 0:
            self._cancelled_in_queue -= 1

    def step(self) -> bool:
        """Execute the next pending event; return False if queue is empty.

        The single-step/debug API and the engine of the ``max_events`` run.
        Waiting for a condition is :meth:`run_until`'s job: a step-and-poll
        loop pays this method's per-item bucket re-push plus one predicate
        read per event.
        """
        queue = self._queue
        push = heapq.heappush
        while queue:
            entry = heapq.heappop(queue)
            when = entry[0]
            if when == self._tail_when:
                self._tail_when = _NO_TAIL
                self._tail_entry = None
            payload = entry[2]
            cls = payload.__class__
            if cls is _LIST:
                index = 0
                n = len(payload)
                while index < n:
                    item = payload[index]
                    index += 1
                    icls = item.__class__
                    if icls is EventHandle:
                        if item.cancelled:
                            self._drop_cancelled()
                            continue
                        item._owner = None
                        callback, args = item.callback, item.args
                    elif icls is _TUPLE:
                        callback, args = item
                    else:
                        callback, args = item, ()
                    if index < n:
                        # Remaining same-instant events go back as one entry
                        # keeping the original seq, so FIFO rank survives.
                        entry[2] = payload[index:] if n - index > 1 else payload[index]
                        push(queue, entry)
                    self._live -= 1
                    self.clock.advance_to(when)
                    self.events_executed += 1
                    callback(*args)
                    return True
                continue  # every bucket item was cancelled
            if cls is RepeatHandle:
                if payload.cancelled:
                    self._drop_cancelled()
                    continue
                self.clock.advance_to(when)
                self.events_executed += 1
                payload.callback()
                if payload.cancelled:
                    # Cancelled from its own callback: the entry already left
                    # the queue, so cancel's stale-entry count is phantom;
                    # its live decrement stands (the timer is gone).
                    self._drop_cancelled()
                    return True
                entry[0] = when + payload.interval
                push(queue, entry)
                return True
            if cls is EventHandle:
                if payload.cancelled:
                    self._drop_cancelled()
                    continue
                payload._owner = None
                callback, args = payload.callback, payload.args
            elif cls is _TUPLE:
                callback, args = payload
            else:
                callback, args = payload, ()
            self._live -= 1
            self.clock.advance_to(when)
            self.events_executed += 1
            callback(*args)
            return True
        return False

    def run(self, until: Optional[SimTime] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        When ``until`` is given the clock is advanced exactly to ``until``
        (unless the kernel was stopped) so successive ``run(until=...)``
        calls observe contiguous time.  :meth:`wake` never shortens a plain
        ``run``: it only acts while a :meth:`run_until` is armed.
        """
        if self._running:
            raise SimulationError("kernel.run() is not reentrant")
        if max_events is not None:
            self._run_bounded(until, max_events)
            return
        self._dispatch(until)
        if until is not None and not self._stopped and self.clock._now < until:
            self.clock.advance_to(until)

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
        self._armed = True
        try:
            while not predicate():
                self._halt = self._stopped  # clear the last wake, never a stop
                self._dispatch(until)
                if self._stopped:
                    return False
                if not self._halt:
                    # Not woken: drained, or only later events remain.
                    if (
                        until is not None
                        and self.clock._now < until
                        and self.peek_next_time() is not None
                    ):
                        self.clock.advance_to(until)
                    return False
            return True
        finally:
            self._armed = False
            self._halt = self._stopped

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
        queue = self._queue  # identity is stable (compaction mutates in place)
        pop = heapq.heappop
        push = heapq.heappush
        clock = self.clock
        executed = 0
        repeats = 0
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
                payload = entry[2]
                cls = payload.__class__
                if cls is _TUPLE:
                    clock._now = when
                    executed += 1
                    payload[0](*payload[1])
                elif cls is _LIST:
                    clock._now = when
                    index = 0
                    n = len(payload)
                    while index < n:
                        item = payload[index]
                        index += 1
                        icls = item.__class__
                        if icls is _TUPLE:
                            executed += 1
                            item[0](*item[1])
                        elif icls is EventHandle:
                            if item.cancelled:
                                self._drop_cancelled()
                                continue
                            item._owner = None
                            executed += 1
                            item.callback(*item.args)
                        else:
                            executed += 1
                            item()
                        if self._halt and index < n:
                            entry[2] = (
                                payload[index:] if n - index > 1 else payload[index]
                            )
                            push(queue, entry)
                            break
                elif cls is RepeatHandle:
                    if payload.cancelled:
                        self._drop_cancelled()
                        continue
                    clock._now = when
                    executed += 1
                    repeats += 1
                    payload.callback()
                    if payload.cancelled:
                        # Cancelled from its own callback: the entry already
                        # left the queue, so cancel's stale-entry count is
                        # phantom; its live decrement stands (timer is gone)
                        # and the repeat accounting above nets to zero.
                        self._drop_cancelled()
                        continue
                    entry[0] = when + payload.interval
                    push(queue, entry)
                elif cls is EventHandle:
                    if payload.cancelled:
                        self._drop_cancelled()
                        continue
                    payload._owner = None
                    clock._now = when
                    executed += 1
                    payload.callback(*payload.args)
                else:  # bare callable
                    clock._now = when
                    executed += 1
                    payload()
        finally:
            self.events_executed += executed
            self._live -= executed - repeats
            self._running = False

    def _run_bounded(self, until: Optional[SimTime], max_events: int) -> None:
        """The ``max_events``-limited run loop (rare; driven by tests and
        debugging harnesses), built on :meth:`step` for exact per-event
        accounting."""
        self._running = True
        try:
            executed = 0
            while executed < max_events and not self._stopped:
                next_time = self.peek_next_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                if not self.step():
                    break
                executed += 1
            if until is not None and not self._stopped and self.clock._now < until:
                self.clock.advance_to(until)
        finally:
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
        """Number of live (non-cancelled) events still queued; O(1)."""
        return self._live

    def peek_next_time(self) -> Optional[SimTime]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        queue = self._queue
        while queue:
            entry = queue[0]
            payload = entry[2]
            live = payload_live_item_count(payload)
            if live:
                return entry[0]
            if entry is self._tail_entry:
                self._tail_when = _NO_TAIL
                self._tail_entry = None
            heapq.heappop(queue)
            if payload.__class__ is _LIST:
                for _ in payload:
                    self._drop_cancelled()
            else:
                self._drop_cancelled()
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Kernel(now={self.now:.6f}, pending={self.pending_events}, "
            f"executed={self.events_executed})"
        )
