"""Scheduled events and slab event storage.

A **scheduled event** is a callback queued to fire at a specific simulated
time.  :class:`EventHandle` is the caller's handle to one, supporting
cancellation; :class:`RepeatHandle` is the handle to a periodic one.

Slab event storage
------------------

The kernel no longer allocates an :class:`EventHandle` per scheduled event.
Its queue holds mutable three-slot **slab entries** ``[when, seq, payload]``
(see :data:`SLAB_WHEN`/:data:`SLAB_SEQ`/:data:`SLAB_PAYLOAD`), where the
payload slot stores the event in its cheapest possible representation:

* a bare callable — a no-argument event from the no-handle fast path
  (``kernel.schedule_at``/``schedule_after``);
* a ``(callback, args)`` tuple — a fast-path event with arguments;
* an :class:`EventHandle` — a cancellable event (``kernel.call_at`` family);
* a :class:`RepeatHandle` — a periodic timer the dispatch loop re-arms in
  place, reusing the same slab entry and sequence number forever;
* a ``list`` of the first three forms — a **bucket**: every event scheduled
  for the same timestamp while that timestamp is the newest in the queue.
  Buckets are drained in one pass with no per-event heap traffic, which is
  what makes same-instant bursts (FIFO-clamped channel deliveries, restart
  storms) cheap.

Entries are lists, not tuples, precisely so the payload slot can be
promoted from a single event to a bucket — and a repeat entry's ``when``
re-stamped — without re-allocating or re-locating the heap entry.
:func:`payload_live_items` is the one shared definition of which stored
events are still live, used by compaction and queue inspection.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.types import SimTime


class EventHandle:
    """Cancellable handle to a callback scheduled on the kernel."""

    __slots__ = ("when", "seq", "callback", "args", "cancelled", "_owner")

    def __init__(
        self,
        when: SimTime,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
        owner: Optional[Any] = None,
    ) -> None:
        self.when = when
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        # The kernel that queued this handle; cleared when the event fires
        # so a late cancel cannot disturb the kernel's live-event counter.
        self._owner = owner

    def cancel(self) -> None:
        """Prevent the callback from firing.

        Cancelling an already-fired or already-cancelled handle is a no-op,
        so callers may cancel defensively without tracking state.
        """
        if self.cancelled:
            return
        self.cancelled = True
        owner = self._owner
        if owner is not None:
            self._owner = None
            owner._note_cancel()

    def __lt__(self, other: "EventHandle") -> bool:
        # heapq ordering: by time, then FIFO by scheduling sequence number.
        return (self.when, self.seq) < (other.when, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"EventHandle(when={self.when:.6f}, callback={name}, {state})"


class RepeatHandle:
    """Cancellable handle to a periodic timer (``kernel.schedule_interval``).

    The kernel's dispatch loop re-arms the timer itself — bumping the slab
    entry's timestamp and pushing the *same* entry back onto the heap — so a
    steady periodic callback costs one heap push per firing and zero
    allocations.  The handle keeps its original sequence number, so its
    FIFO rank among same-instant events is stable and deterministic.

    No product component repeats this way (FD, the prober and the fault
    injectors re-arm with ``schedule_after`` chains); the kernel dispatch driver
    in ``bench/drivers.py`` is its caller.
    """

    __slots__ = ("interval", "callback", "cancelled", "_owner")

    def __init__(self, interval: SimTime, callback: Callable[[], None], owner: Optional[Any] = None) -> None:
        self.interval = interval
        self.callback = callback
        self.cancelled = False
        self._owner = owner

    def cancel(self) -> None:
        """Stop the timer; firing never resumes.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        owner = self._owner
        if owner is not None:
            self._owner = None
            owner._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "armed"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"RepeatHandle(every={self.interval:.6f}, callback={name}, {state})"


#: Slot indices of a slab entry ``[when, seq, payload]``.
SLAB_WHEN = 0
SLAB_SEQ = 1
SLAB_PAYLOAD = 2


def payload_live_item_count(payload: Any) -> int:
    """Number of live (non-cancelled) events stored in a slab payload."""
    cls = payload.__class__
    if cls is list:
        return sum(
            1
            for item in payload
            if item.__class__ is not EventHandle or not item.cancelled
        )
    if (cls is EventHandle or cls is RepeatHandle) and payload.cancelled:
        return 0
    return 1


def payload_live_items(payload: Any) -> list:
    """The live events of a slab payload, in FIFO order (compaction helper)."""
    cls = payload.__class__
    if cls is list:
        return [
            item
            for item in payload
            if item.__class__ is not EventHandle or not item.cancelled
        ]
    if (cls is EventHandle or cls is RepeatHandle) and payload.cancelled:
        return []
    return [payload]
