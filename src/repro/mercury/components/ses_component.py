"""ses — the satellite estimator.

"ses (satellite estimator) calculates satellite position, radio frequencies,
and antenna pointing angles" (§2.1).  Every ``solution_period`` seconds it
computes a tracking solution and commands ``str`` (pointing angles) and
``rtu`` (downlink frequency with Doppler correction).

The solution function is pluggable.  A station that accounts passes points
it at :meth:`repro.mercury.passes.PassAccountant.solution`: the orbit
model's look angles and a Doppler-ramped frequency during passes, nothing
between them, when ses idles (no satellite in view).  A station without a
pass schedule tracks an always-in-view test satellite.

ses also runs the startup synchronisation handshake with ``str`` whose
failure modes drive §4.3's group consolidation (the timing cost of the
handshake is part of the calibrated startup work; the induced-failure
behaviour is modelled by :class:`repro.faults.correlation.ResyncCoupling`).

Between faults most solves change nothing anyone reads but counters: str
slews the antenna, rtu drops an unchanged tune whose refresh is not due.
ses *folds* those solves (DESIGN.md §9, "Folded solves"): it keeps its
grid, queues only the next solve that rtu could forward, and catches the
skipped ones up — counters, slew, broker and channel counts, and each
link's latency draws — whenever something could read or disturb them: a
poke of the supervision clock, any send on the loop's three links, a
service request, or the kernel handing control back to its caller.  The
solve still in flight at a catch-up is replayed hop by hop.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional, Tuple, TYPE_CHECKING

from repro.components.base import BusAttachedBehavior
from repro.mercury.components.session_hooks import (
    _externalize_session,
    _handle_session_start,
)
from repro.types import SimTime
from repro.xmlcmd.commands import CommandMessage, Message, encode_message

if TYPE_CHECKING:  # pragma: no cover
    from repro.mercury.session_store import SessionStore
    from repro.procmgr.process import SimProcess
    from repro.transport.channel import Endpoint
    from repro.transport.network import Network

_NEVER = float("inf")

#: Returns (azimuth_deg, elevation_deg, downlink_hz) or None when no
#: satellite is in view.
SolutionFn = Callable[[SimTime], Optional[Tuple[float, float, float]]]


def _default_solution(now: SimTime) -> Optional[Tuple[float, float, float]]:
    """A bland always-in-view solution for stations without a pass schedule."""
    azimuth = (now * 0.5) % 360.0
    elevation = 45.0
    frequency = 437.1e6
    return azimuth, elevation, frequency


class SesBehavior(BusAttachedBehavior):
    """The satellite-estimator behavior."""

    def __init__(
        self,
        process: "SimProcess",
        network: "Network",
        bus_address: str = "mbus:7000",
        solution_period: SimTime = 2.0,
        tracker_name: str = "str",
        tuner_name: str = "rtu",
        session_store: Optional["SessionStore"] = None,
    ) -> None:
        super().__init__(process, network, bus_address, session_store=session_store)
        self._bus_name = bus_address.split(":", 1)[0]
        self.solution_period = solution_period
        self._solution_fn: SolutionFn = _default_solution
        self.tracker_name = tracker_name
        self.tuner_name = tuner_name
        self.solutions_sent = 0
        #: User-plane telemetry queries answered (workload service endpoint).
        self.svc_requests = 0
        self._loop_epoch = 0
        #: Whether this incarnation restored its sync session from the store
        #: (microreboot) instead of running the handshake.
        self._session_restored = False
        #: While folded: the loop (:meth:`_fold_loop`), the first skipped
        #: tick not yet caught up, and the tick of the queued real solve.
        self._folded: Optional[tuple] = None
        self._fold_tick = 0.0
        self._fold_end = 0.0
        #: Folded messages in flight at the last catch-up, owed to the next
        #: one: ``(arrival, forward, solution, at_bus)`` (see :meth:`_land`).
        self._owed: list = []

    @property
    def solution_fn(self) -> SolutionFn:
        """Read at every solve; a :class:`~repro.mercury.passes.PassAccountant`
        replaces it with its pass schedule (a fold rests on the solution it
        tracks, so a replacement ends it first)."""
        return self._solution_fn

    @solution_fn.setter
    def solution_fn(self, solution_fn: SolutionFn) -> None:
        if self._folded is not None:
            self._unfold()
        self._solution_fn = solution_fn

    def on_start(self) -> None:
        self._session_restored = _handle_session_start(self)
        super().on_start()
        self._loop_epoch += 1
        self.kernel.schedule_after(self.solution_period, self._solve, self._loop_epoch)

    def on_bus_connected(self) -> None:
        if self._session_restored:
            # Microreboot: the externalised session is still valid and the
            # peer kept running — no resynchronisation announce.
            return
        # Startup synchronisation with the tracker (§4.3): announce a fresh
        # session so the peer can resynchronise.
        self.send(
            CommandMessage(sender=self.name, target=self.tracker_name, verb="sync")
        )

    def on_message(self, message: Message) -> None:
        if not isinstance(message, CommandMessage):
            return
        if message.verb == "sync":
            self.send(
                CommandMessage(sender=self.name, target=message.sender, verb="sync-ack")
            )
        elif message.verb == "sync-ack":
            _externalize_session(self, peer=message.sender)
        elif message.verb == "telemetry-query":
            # User-plane service endpoint: answer with the solution ledger.
            # Replies only flow while this incarnation is healthy — the
            # zombie/hang gates upstream drop the request, so a failed ses
            # is user-visible as client timeouts, not wrong answers.
            supervision = self.kernel.supervision
            if self.kernel.clock._now > supervision.loop_due:
                supervision.settle(self.kernel.clock._now)  # the ledger counts folded solves
            self.svc_requests += 1
            self._reply_service(message, "telemetry", "solutions", self.solutions_sent)

    def _solve(self, epoch: int) -> None:
        if not self._alive or epoch != self._loop_epoch:
            return
        now = self.kernel.now
        loop = self._folded
        if loop is not None:
            # The fold's last tick: catch up on what it skipped.  Nothing it
            # rests on has changed (a poke would have ended it), so the loop
            # folds on, its hooks left in place.
            self._catch_up(True)
        else:
            loop = self._fold_loop()
        if loop is not None:
            self._fold_solve(loop, now, epoch)
            return
        self.kernel.schedule_after(self.solution_period, self._solve, epoch)
        solution = self._solution_fn(now)
        if solution is None:
            return  # no satellite in view
        azimuth, elevation, frequency = solution
        sent_track = self.send(self._track(azimuth, elevation))
        sent_tune = self.send(self._tune(frequency))
        if sent_track and sent_tune:
            self.solutions_sent += 1

    def _track(self, azimuth: float, elevation: float) -> CommandMessage:
        return CommandMessage(
            sender=self.name,
            target=self.tracker_name,
            verb="track",
            params={"azimuth": f"{azimuth:.3f}", "elevation": f"{elevation:.3f}"},
        )

    def _tune(self, frequency: float) -> CommandMessage:
        return CommandMessage(
            sender=self.name,
            target=self.tuner_name,
            verb="tune",
            params={"frequency_hz": f"{frequency:.1f}"},
        )

    # ------------------------------------------------------------------
    # folded solves (DESIGN.md §9): skipped, and caught up on when read
    # ------------------------------------------------------------------

    def _fold_loop(self) -> Optional[tuple]:
        """The loop — ses's endpoint, the broker's endpoints to str and
        rtu, the broker, str and rtu — if its solves may fold now: ses
        tracks the always-in-view satellite (a pass's Doppler ramp retunes
        rtu on every solve), no fault fabric is armed, and ses, mbus, str
        and rtu run undegraded and attached, with no session store for str
        to log the tracks in."""
        faults = self.network.faults
        endpoint = self._endpoint
        if (
            self._solution_fn is not _default_solution
            or self.process.degraded_mode is not None
            or (faults is not None and faults.active)
            or endpoint is None
            or not endpoint.open
        ):
            return None
        manager = self.process.manager
        bus = manager.maybe_get(self._bus_name)
        tracker = manager.maybe_get(self.tracker_name)
        tuner = manager.maybe_get(self.tuner_name)
        for process in (bus, tracker, tuner):
            if process is None or not process.is_running or process.degraded_mode is not None:
                return None
        bus, tracker, tuner = bus.behavior, tracker.behavior, tuner.behavior
        to_tracker = bus.attached(self.tracker_name)
        to_tuner = bus.attached(self.tuner_name)
        if (
            tracker._session_store is not None
            or bus.attached(self.name) is not endpoint._peer
            or to_tracker is None
            or to_tracker._peer is not tracker._endpoint
            or to_tuner is None
            or to_tuner._peer is not tuner._endpoint
        ):
            return None
        return endpoint, to_tracker, to_tuner, bus, tracker, tuner

    def _fold_solve(self, loop: tuple, now: SimTime, epoch: int) -> None:
        """The solve now on a foldable loop, and the fold after it.

        If rtu surely drops this tick's tune, this solve and the ones after
        it fold, up to the first rtu might forward.  Otherwise the tune
        goes for real and only the track folds: its first hop is drawn now,
        as its send would be, and the rest is owed to the catch-up.  When
        rtu surely forwards the tune (a new frequency, or a refresh due by
        its earliest landing, two base hops away), the ticks after it fold
        too, judged from that landing.
        """
        tuner = loop[5]
        azimuth, elevation, frequency = self._solution_fn(now)
        last = tuner._last_forward_at
        base = self.network.latency.base
        landing = (now + base) + base  # the tune's earliest landing at rtu
        retune = float(f"{frequency:.1f}") != tuner._last_frequency
        if not retune:
            end = self._horizon(loop, now, last)
            if end > now:
                self._fold(loop, now, end)
                self.kernel.schedule_at(end, self._solve, epoch)
                return
        nxt = now + self.solution_period
        if retune or landing - last >= tuner.refresh_interval:
            end = self._horizon(loop, nxt, landing)
        else:
            end = nxt
        self.kernel.schedule_at(end, self._solve, epoch)
        track = loop[0]._hop(now)
        self.send(self._tune(frequency))
        self.solutions_sent += 1
        self._owed.append((track, loop[1], (azimuth, elevation, frequency), True))
        self._fold(loop, nxt, end)

    def _horizon(self, loop: tuple, tick: SimTime, last: SimTime) -> SimTime:
        """The first tick from ``tick`` on whose tune rtu might forward, its
        last forward having landed at ``last`` or later: every solve before
        it sends str a track and rtu a tune it drops, the refresh not yet
        due by the tune's latest possible arrival."""
        endpoint, _, to_tuner, _, _, tuner = loop
        refresh = tuner.refresh_interval
        if refresh == float("inf"):
            return tick
        latency = self.network.latency
        reach = latency.base + latency.jitter  # a hop's longest delay
        clamps = endpoint._peer._last_arrival, to_tuner._peer._last_arrival
        while True:
            # The tune's latest arrival at rtu: two hops, each FIFO-clamped.
            latest = max(max(tick + reach, clamps[0]) + reach, clamps[1])
            if latest - last >= refresh:
                return tick
            tick += self.solution_period

    def _fold(self, loop: tuple, tick: SimTime, end: SimTime) -> None:
        """Skip the solves from ``tick`` up to ``end``, whose solve is queued
        (hooking the loop's links and the supervision clock unless the loop
        is folded already)."""
        self._fold_tick = tick
        self._fold_end = end
        if self._folded is not loop:
            self._folded = loop
            for endpoint in loop[:3]:
                endpoint._settle = partial(self._catch_up, endpoint)
            peers = frozenset((self.name, loop[3].name, loop[4].name, loop[5].name))
            self.kernel.supervision.fold_loop(self._catch_up, self._unfold, peers)
        self._arm()

    def _arm(self) -> None:
        """Set when a send on each of the loop's links must first catch
        up: from the next skipped tick on (its hops draw first), and from
        the landing at mbus of an owed message to be forwarded on that
        link; at once on the link an owed message is in flight on."""
        endpoint, to_tracker, to_tuner = self._folded[:3]
        tick = self._fold_tick if self._fold_tick < self._fold_end else _NEVER
        own = track = tune = due = tick
        for arrival, forward, _, at_bus in self._owed:
            if arrival < due:
                due = arrival
            if not at_bus:
                if forward is to_tracker:
                    track = 0.0
                else:
                    tune = 0.0
                continue
            own = 0.0
            if forward is to_tracker:
                if arrival < track:
                    track = arrival
            elif arrival < tune:
                tune = arrival
        endpoint._settle_at = own
        to_tracker._settle_at = track
        to_tuner._settle_at = tune
        self.kernel.supervision.loop_due = due

    def _unfold(self) -> None:
        """The supervision clock's poke: something the fold rests on is
        about to change.  Catch up, and solve for real from the next tick."""
        self._catch_up(True)  # nothing stays owed to a fold that has ended
        for endpoint in self._folded[:3]:
            endpoint._settle = None
            endpoint._settle_at = _NEVER
        self._folded = None
        self.kernel.supervision.fold_loop(None, None)
        tick = self._fold_tick
        if tick != self._fold_end:
            # Fence off the queued solve; the next tick's replaces it.
            self._loop_epoch += 1
            self.kernel.schedule_at(tick, self._solve, self._loop_epoch)

    def _catch_up(self, wake: Any = None) -> None:
        """Apply what the fold skipped that has landed by now, as stepping
        has: the owed messages first, then every skipped solve begun
        before now.  What is still in flight stays owed, unless ``wake``
        is about to meet it: ``True`` (a poke, or the fold's end) meets
        everything; an endpoint about to send meets what will reach its
        receiver — ses's endpoint the messages bound for mbus, a broker
        endpoint the messages it is to carry.  Those go to the kernel as
        real deliveries, and the real code carries them on."""
        now = self.kernel.clock._now
        tick, end, period = self._fold_tick, self._fold_end, self.solution_period
        due = tick < now and tick < end
        if not due and not self._owed:
            return
        owed, self._owed = self._owed, []
        for arrival, forward, solution, at_bus in owed:
            self._land(arrival, forward, solution, at_bus, now, wake)
        if due:
            endpoint, to_tracker, to_tuner = self._folded[:3]
            solution_fn = self._solution_fn
            while tick < now and tick < end:
                solution = solution_fn(tick)
                self.solutions_sent += 1
                self._land(endpoint._hop(tick), to_tracker, solution, True, now, wake)
                self._land(endpoint._hop(tick), to_tuner, solution, True, now, wake)
                tick += period
            self._fold_tick = tick
        self._arm()

    def _land(
        self,
        arrival: SimTime,
        forward: "Endpoint",
        solution: tuple,
        at_bus: bool,
        now: SimTime,
        wake: Any,
    ) -> None:
        """A folded track or tune arriving at ``arrival`` — at mbus to be
        forwarded on ``forward`` if ``at_bus``, else at ``forward``'s peer
        — carried as stepping has carried it until now.

        Each hop draws on its own link at its sender's instant
        (``Endpoint._hop``).  A hop that landed before now is applied here:
        the broker routes it, str slews, rtu counts a tune it drops.  The
        one in flight is owed, or, if ``wake`` meets it (see
        :meth:`_catch_up`), queued for its instant to the endpoint it was
        sent to.  A hop due exactly now is still in flight: the poke comes
        first, as in FD's fold.
        """
        endpoint, to_tracker, _, bus, tracker, tuner = self._folded
        if at_bus:
            if arrival >= now:
                if wake is True or wake is endpoint:
                    self._deliver_owed(arrival, endpoint._peer, forward, solution)
                else:
                    self._owed.append((arrival, forward, solution, True))
                return
            endpoint._channel.messages_delivered += 1
            bus.routed += 1
            arrival = forward._hop(arrival)
        if arrival >= now:
            if wake is True or wake is forward:
                self._deliver_owed(arrival, forward._peer, forward, solution)
            else:
                self._owed.append((arrival, forward, solution, False))
            return
        forward._channel.messages_delivered += 1
        if forward is to_tracker:
            azimuth, elevation = solution[0], solution[1]
            tracker.antenna.point(
                float(f"{azimuth:.3f}"), float(f"{elevation:.3f}"), tracker.name, arrival
            )
            tracker.track_commands += 1
        else:
            tuner.tune_commands += 1

    def _deliver_owed(
        self, arrival: SimTime, receiver: "Endpoint", forward: "Endpoint", solution: tuple
    ) -> None:
        message = (
            self._track(solution[0], solution[1])
            if forward is self._folded[1]
            else self._tune(solution[2])
        )
        self.kernel.schedule_at(arrival, receiver._deliver, encode_message(message))
