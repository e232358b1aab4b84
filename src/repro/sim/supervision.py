"""The supervision clock: the one wake source of folded rounds and loops.

FD pings every monitored component once a round.  While every ping is
answered and nothing on the station changes, a round sees nothing: no
miss, no report, no restart.  FD then *folds* its rounds (DESIGN.md §9,
"Quiet rounds"): it stays on its grid but executes none of them, and
sleeps on this clock.  So it does while it is off the bus during mbus's
restart, when a round can judge only REC's heartbeat.  Whatever could make
a round see something pokes the clock first — a process start, ready, kill
or fail-slow degradation, a bus attach or detach, the fault fabric arming
or disarming, the FD↔REC control channel opening, closing or carrying
anything but a ping — and the poke wakes FD *before* the change lands, so
that FD catches up on its folded rounds exactly as far as stepping would
have run them by that instant.

A round with pings in doubt steps them and folds only the sure ones; it
*holds* their replay on the clock (:meth:`hold`), and the next poke runs
it first, so that a poke inside the round's flight window finds its
folded pings in flight as stepping sent them.

The clock is not a lifecycle listener: ``ProcessManager.degrade`` notifies
no listener by design, so that the abstract supervisor stays blind to
fail-slow faults, and yet it pokes the clock.

The clock also answers for the folded rounds' heartbeats.  FD's round ping
is REC's heartbeat from FD, and REC's FD deadline reads :meth:`heard` for
the instant FD's last folded ping reached it.  Grid ticks are computed by
repeated addition, as a chain of timers computes them.

REC's FD watchdog sleeps on the fold as well: a deadline check that finds
FD folded and heard from lately arms no further check but parks one
callback with :meth:`sleep`, which a poke runs right after FD's catch-up.
A deadline can only expire once FD's heartbeats stop, and nothing stops
them without poking first, so the watchdog re-arms from FD's last
heartbeat in time for the check that would restart FD.  It is one more
slot, not a listener list: a station has one REC.

An application loop folds on the clock too: ses's track/tune loop
(:class:`~repro.mercury.components.ses_component.SesBehavior`) skips its
solves and replays them, hop by hop, later.  It parks two callbacks:
``poked``, which every poke runs after FD's catch-up with the poke's
subject (the loop decides whether that ends its fold or only catches it
up), and ``catch_up``, which :meth:`settle` runs once the loop's
``loop_due`` has passed and which leaves it folded.  The kernel settles
before every return to its caller, and the trace before it builds a
record, so a station read between runs reads as stepping left it and
every sink sees the replayed records at their own instants.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.types import SimTime

_NEVER = float("-inf")
_FOREVER = float("inf")


class SupervisionClock:
    """Pokes wake the folded FD; :meth:`heard` answers for its rounds."""

    __slots__ = (
        "_wake", "_period", "_hop", "_prev", "_last", "_next", "_rounds",
        "_end", "_heard", "_watchdog", "_flight", "_loop_catch_up",
        "_loop_poked", "loop_due",
    )

    def __init__(self) -> None:
        #: The sleeping FD's catch-up (a bound method), while it folds.
        self._wake: Optional[Callable[[], None]] = None
        self._period = 0.0
        self._hop = 0.0
        #: The fold's grid: the two latest ticks counted and the next one.
        self._prev = _NEVER
        self._last = _NEVER
        self._next = _FOREVER
        #: Ticks counted since the fold began, its first included.
        self._rounds = 0
        #: When the fold ended (``inf`` while it lasts).
        self._end = _NEVER
        #: Heartbeat arrivals of earlier folds.
        self._heard = _NEVER
        #: The sleeping FD watchdog's re-arm (a bound method), run after
        #: ``_wake`` at the poke that ends the fold.
        self._watchdog: Optional[Callable[[], None]] = None
        #: A stepped round's replay of the paths it folded (a bound
        #: method), run first by the next poke.
        self._flight: Optional[Callable[[], None]] = None
        #: A folded application loop's catch-up (run by :meth:`settle`) and
        #: its poke handler (run by every poke), while it folds.
        self._loop_catch_up: Optional[Callable[[], None]] = None
        self._loop_poked: Optional[Callable[[Optional[str]], None]] = None
        #: The earliest instant at which a folded loop has anything to
        #: catch up on (kept by the loop; ``inf`` while none folds).
        self.loop_due = _FOREVER

    @property
    def folded(self) -> bool:
        """Whether an FD sleeps on the clock."""
        return self._wake is not None

    def fold(
        self, tick: SimTime, period: SimTime, hop: SimTime, wake: Callable[[], None]
    ) -> None:
        """Fold the rounds on ``tick``'s grid, ``tick``'s own included, until
        the next poke calls ``wake``.  ``hop`` is one ping hop's delay."""
        self._heard = self._heard_before(self._end)
        self._wake = wake
        self._period = period
        self._hop = hop
        self._prev = _NEVER
        self._last = tick
        self._next = tick + period
        self._rounds = 1
        self._end = _FOREVER

    def sleep(self, watchdog: Callable[[], None]) -> None:
        """Park ``watchdog`` on the fold: the next poke calls it once FD has
        caught up.  Only while :attr:`folded`."""
        self._watchdog = watchdog

    def hold(self, flight: Callable[[], None]) -> None:
        """Have the next poke call ``flight`` first: a stepped round folded
        some of its paths, and their hops may be in flight."""
        self._flight = flight

    def fold_loop(
        self,
        catch_up: Optional[Callable[[], None]],
        poked: Optional[Callable[[Optional[str]], None]],
    ) -> None:
        """Park a folded application loop (``None``, ``None``: the loop
        ended its fold)."""
        self._loop_catch_up = catch_up
        self._loop_poked = poked
        if catch_up is None:
            self.loop_due = _FOREVER

    def poke(self, component: Optional[str] = None) -> None:
        """Something a round could see is about to change — about
        ``component``'s process or bus attachment, or (``None``) about the
        station at large: wake the FD, then the watchdog sleeping on it,
        then a folded loop.  A stepped round's folded paths are replayed
        before all of them."""
        flight = self._flight
        if flight is not None:
            self._flight = None
            flight()
        wake = self._wake
        if wake is not None:
            self._wake = None
            wake()
            watchdog = self._watchdog
            if watchdog is not None:
                self._watchdog = None
                watchdog()
        poked = self._loop_poked
        if poked is not None:
            poked(component)

    def settle(self, now: SimTime) -> None:
        """Have a folded loop catch up on what it skipped before ``now`` —
        its counters, its links' draws, its hops landed — and stay folded."""
        if now > self.loop_due:
            self._loop_catch_up()

    def unfold(self, now: SimTime) -> Tuple[int, SimTime, SimTime]:
        """End the fold at ``now``: ``(rounds, last, next)`` — the rounds
        begun before ``now`` (a tick *at* ``now`` has not begun: the poke
        comes first), the last of their ticks, and the next tick."""
        self._count(now)
        self._end = now
        return self._rounds, self._last, self._next

    def heard(self, now: SimTime) -> SimTime:
        """When a folded round's ping last reached REC before ``now``
        (``-inf`` if none did)."""
        return self._heard_before(min(now, self._end))

    def _heard_before(self, limit: SimTime) -> SimTime:
        self._count(limit)
        hop = self._hop
        if self._last + hop < limit:
            return max(self._heard, self._last + hop)
        if self._prev + hop < limit:
            return max(self._heard, self._prev + hop)
        return self._heard

    def _count(self, limit: SimTime) -> None:
        tick = self._next
        if tick < limit:
            period = self._period
            last = self._last
            prev = self._prev
            rounds = self._rounds
            while tick < limit:
                prev = last
                last = tick
                tick += period
                rounds += 1
            self._prev = prev
            self._last = last
            self._next = tick
            self._rounds = rounds
