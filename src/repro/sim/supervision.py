"""The supervision clock: the one wake source of folded rounds and loops.

FD pings every monitored component once a round.  While every ping is
answered and nothing on the station changes, a round sees nothing: no
miss, no report, no restart.  FD then *folds* its rounds (DESIGN.md §9,
"Quiet rounds"): it stays on its grid but executes none of them, and
sleeps on this clock.  Whatever could make a round see something pokes the
clock first — a process start, ready, kill or fail-slow degradation, a bus
attach or detach, the fault fabric arming or disarming, the FD↔REC control
channel opening, closing or carrying anything but a ping — and the poke
wakes FD *before* the change lands, so that FD catches up on its folded
rounds exactly as far as stepping would have run them by that instant.

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
(:class:`~repro.mercury.components.ses_component.SesBehavior`) skips the
solves whose every hop is known in advance and catches them up later.  It
parks two callbacks and the components it rests on: ``unfold``, which a
poke about one of those components (or about the station at large) runs
after FD's catch-up and which ends the fold, and ``catch_up``, which
:meth:`settle` runs once the loop's ``loop_due`` has passed and which
leaves it folded.  The kernel settles before every return to its caller,
so a station read between runs reads as stepping left it.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Optional, Tuple

from repro.types import SimTime

_NEVER = float("-inf")
_FOREVER = float("inf")


class SupervisionClock:
    """Pokes wake the folded FD; :meth:`heard` answers for its rounds."""

    __slots__ = (
        "_wake", "_period", "_hop", "_prev", "_last", "_next", "_rounds",
        "_end", "_heard", "_watchdog", "_loop_catch_up", "_loop_unfold",
        "_loop_peers", "loop_due",
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
        #: A folded application loop's catch-up (run by :meth:`settle`) and
        #: its unfold (run by a poke), while it folds.
        self._loop_catch_up: Optional[Callable[[], None]] = None
        self._loop_unfold: Optional[Callable[[], None]] = None
        #: The components whose pokes wake the folded loop.
        self._loop_peers: FrozenSet[str] = frozenset()
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

    def fold_loop(
        self,
        catch_up: Optional[Callable[[], None]],
        unfold: Optional[Callable[[], None]],
        peers: FrozenSet[str] = frozenset(),
    ) -> None:
        """Park a folded application loop resting on the components
        ``peers`` (``None``, ``None``: the loop ended its fold itself)."""
        self._loop_catch_up = catch_up
        self._loop_unfold = unfold
        self._loop_peers = peers
        if catch_up is None:
            self.loop_due = _FOREVER

    def poke(self, component: Optional[str] = None) -> None:
        """Something a round could see is about to change — about
        ``component``'s process or bus attachment, or (``None``) about the
        station at large: wake the FD, then the watchdog sleeping on it,
        then a folded loop that rests on ``component``."""
        wake = self._wake
        if wake is not None:
            self._wake = None
            wake()
            watchdog = self._watchdog
            if watchdog is not None:
                self._watchdog = None
                watchdog()
        unfold = self._loop_unfold
        if unfold is not None and (component is None or component in self._loop_peers):
            self._loop_catch_up = self._loop_unfold = None
            self.loop_due = _FOREVER
            unfold()

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
