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

Between faults every solve is known in advance: str slews the antenna,
rtu drops an unchanged tune or forwards its 10 s refresh to the radio
proxy.  ses *folds* them all (DESIGN.md §9, "Folded solves"): it keeps its
grid, queues nothing, and replays the skipped solves hop by hop — counters,
slew, routing, each link's latency draws, rtu's refresh decision at each
tune's arrival and the forward behind it down to the radio — whenever
something could read or disturb them: a poke of the supervision clock,
any send on the loop's links, a trace record built, a service request,
or the kernel handing control back to its caller.  What is still in
flight at a catch-up is owed to the next one, or replayed as a real
delivery when something is about to meet it.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, List, NamedTuple, Optional, Tuple, TYPE_CHECKING

from repro.components.base import BusAttachedBehavior
from repro.mercury.components.fedr_component import FedrBehavior, freq_line
from repro.mercury.components.session_hooks import (
    _externalize_session,
    _handle_session_start,
)
from repro.types import SimTime
from repro.xmlcmd.commands import CommandMessage, Message, encode_message

if TYPE_CHECKING:  # pragma: no cover
    from repro.bus.broker import BusBroker
    from repro.mercury.components.pbcom_component import PbcomBehavior
    from repro.mercury.components.rtu_component import RtuBehavior
    from repro.mercury.components.str_component import StrBehavior
    from repro.mercury.session_store import SessionStore
    from repro.procmgr.process import SimProcess
    from repro.transport.channel import Endpoint
    from repro.transport.network import Network

_NEVER = float("inf")

#: Where a folded hop is in flight, by the receiver it is bound for: mbus
#: (a track or tune from ses), str, rtu, mbus (rtu's forward), the radio
#: proxy, pbcom.  :meth:`SesBehavior._land` carries a hop on from each.
_TRACK_AT_BUS, _TUNE_AT_BUS, _TRACK, _TUNE, _FREQ_AT_BUS, _FREQ_AT_PROXY, _FREQ_AT_PBCOM = (
    range(7)
)


class _Loop(NamedTuple):
    """What a fold rests on, fixed while it lasts: ses's endpoint, the
    broker's endpoints to str and rtu, and the behaviors the hops reach —
    the broker, str, rtu, the radio proxy (fedr, or fedrcom unsplit) and
    pbcom (``None`` unsplit)."""

    ses: "Endpoint"
    to_tracker: "Endpoint"
    to_tuner: "Endpoint"
    bus: "BusBroker"
    tracker: "StrBehavior"
    tuner: "RtuBehavior"
    proxy: Any
    pbcom: Optional["PbcomBehavior"]

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
        #: While folded: the loop (:meth:`_fold_loop`) and the first
        #: skipped tick not yet caught up.
        self._folded: Optional[_Loop] = None
        self._fold_tick = 0.0
        #: Folded hops in flight at the last catch-up, owed to the next
        #: one: ``(arrival, stage, via, value)`` (see :meth:`_land`).
        self._owed: list = []
        #: The endpoints whose sends catch the fold up first (:meth:`_arm`).
        self._hooked: List["Endpoint"] = []

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
        loop = self._fold_loop()
        if loop is not None:
            self._fold(loop, now)
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

    def _fold_loop(self) -> Optional[_Loop]:
        """The loop, if its solves may fold from now on: ses tracks the
        always-in-view satellite (a pass's Doppler ramp retunes rtu on
        every solve), no fault fabric is armed, ses, mbus, str and rtu run
        undegraded and attached, each over its own current connection, and
        neither the radio proxy nor pbcom is degraded; no component of the
        loop has a session store to log its messages in."""
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
        proxy = manager.maybe_get(tuner.radio_proxy_name)
        if proxy is None:
            return None
        pbcom = None
        radio = [proxy]
        if isinstance(proxy.behavior, FedrBehavior):
            pbcom = manager.maybe_get(proxy.behavior.pbcom_address.split(":", 1)[0])
            if pbcom is None:
                return None
            radio.append(pbcom)
        for process in radio:
            if process.degraded_mode is not None or process.behavior._session_store is not None:
                return None
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
        return _Loop(
            endpoint, to_tracker, to_tuner, bus, tracker, tuner, proxy.behavior,
            None if pbcom is None else pbcom.behavior,
        )

    def _fold(self, loop: _Loop, tick: SimTime) -> None:
        """Skip the solves from ``tick`` on, until a poke ends the fold."""
        self._fold_tick = tick
        self._folded = loop
        self.kernel.supervision.fold_loop(self._catch_up, self._poked)
        self._arm()

    def _arm(self) -> None:
        """Hook the loop's links — ses→mbus, mbus→str, mbus→rtu, rtu→mbus,
        mbus→proxy and fedr→pbcom, each as now connected — so that a send
        on one first catches up: at once on a link a folded hop is in
        flight on, else from the earliest instant a folded hop may be sent
        (the next skipped tick, or an owed hop's landing)."""
        loop = self._folded
        due = self._fold_tick
        busy = []
        for arrival, _, via, _ in self._owed:
            if arrival < due:
                due = arrival
            busy.append(via)
        links = [loop.ses, loop.to_tracker, loop.to_tuner, loop.to_tuner._peer]
        proxy = loop.proxy
        to_proxy = loop.bus._clients.get(proxy.name)
        if to_proxy is not None:
            links.append(to_proxy)
        if proxy._endpoint is not None:
            # The broker's side of the proxy's own connection: about to
            # be attached when the poke is the proxy's attach.
            links.append(proxy._endpoint._peer)
        if loop.pbcom is not None and proxy._pbcom is not None:
            links.append(proxy._pbcom)
        for link in self._hooked:
            if link not in links:
                link._settle = None
                link._settle_at = _NEVER
        for link in links:
            if link._settle is None:
                link._settle = partial(self._catch_up, link)
            link._settle_at = 0.0 if link in busy else due
        self._hooked = links
        self.kernel.supervision.loop_due = due

    def _poked(self, component: Optional[str]) -> None:
        """The supervision clock's poke: something about ``component`` (or,
        ``None``, about the station at large) is about to change.  A poke
        about ses, mbus, str or rtu ends the fold; one about the radio
        proxy or pbcom meets the hops in flight and re-hooks the links,
        and the loop folds on."""
        loop = self._folded
        if component is None or component in (
            self.name, loop.bus.name, loop.tracker.name, loop.tuner.name
        ):
            self._unfold()
        elif component == loop.proxy.name or (
            loop.pbcom is not None and component == loop.pbcom.name
        ):
            self._catch_up(True)

    def _unfold(self) -> None:
        """End the fold: catch up, and solve for real from the next tick."""
        self._catch_up(True)  # nothing stays owed to a fold that has ended
        for link in self._hooked:
            link._settle = None
            link._settle_at = _NEVER
        self._hooked = []
        self._folded = None
        self.kernel.supervision.fold_loop(None, None)
        self.kernel.schedule_at(self._fold_tick, self._solve, self._loop_epoch)

    def _catch_up(self, wake: Any = None) -> None:
        """Apply what the fold skipped that has landed by now, as stepping
        has: the owed hops first, then every skipped solve begun before
        now.  What is still in flight stays owed, unless ``wake`` is about
        to meet it: ``True`` (a poke) meets everything; an endpoint about
        to send meets the hops in flight on it.  Those go to the kernel as
        real deliveries, and the real code carries them on."""
        now = self.kernel.clock._now
        tick = self._fold_tick
        if tick < now or self._owed:
            # The replay's records carry their own instants and settle
            # nothing; ``_arm`` sets ``loop_due`` again.
            self.kernel.supervision.loop_due = _NEVER
            owed, self._owed = self._owed, []
            for arrival, stage, via, value in owed:
                self._land(arrival, stage, via, value, now, wake)
            if tick < now:
                endpoint = self._folded.ses
                solution_fn, period = self._solution_fn, self.solution_period
                while tick < now:
                    solution = solution_fn(tick)
                    self.solutions_sent += 1
                    self._land(endpoint._hop(tick), _TRACK_AT_BUS, endpoint, solution, now, wake)
                    self._land(endpoint._hop(tick), _TUNE_AT_BUS, endpoint, solution, now, wake)
                    tick += period
                self._fold_tick = tick
        self._arm()

    def _land(
        self,
        arrival: SimTime,
        stage: int,
        via: "Endpoint",
        value: Any,
        now: SimTime,
        wake: Any,
    ) -> None:
        """A folded hop sent on ``via``, arriving at ``arrival`` at the
        receiver ``stage`` names, carried as stepping has carried it until
        now; ``value`` is the solution (a track or tune) or the frequency
        text (rtu's forward).

        Each hop that landed before now is applied by its receiver's own
        rule at its arrival — the broker routes it, str slews, rtu takes
        the tune and forwards a refresh due by then, the broker drops a
        forward to a proxy attached nowhere, fedr translates it or drops
        it with pbcom down, fedrcom or pbcom tunes the radio — and the next
        hop is drawn on its own link at that instant (``Endpoint._hop``).
        The hop in flight is owed, or, if ``wake`` meets it (see
        :meth:`_catch_up`), queued for its instant to the endpoint it was
        sent to.  A hop due exactly now is still in flight: the poke comes
        first, as in FD's fold.
        """
        loop = self._folded
        while arrival < now:
            via._channel.messages_delivered += 1
            if stage == _TRACK_AT_BUS or stage == _TUNE_AT_BUS:
                loop.bus.routed += 1
                via = loop.to_tracker if stage == _TRACK_AT_BUS else loop.to_tuner
                stage += _TRACK - _TRACK_AT_BUS
                arrival = via._hop(arrival)
            elif stage == _TRACK:
                tracker = loop.tracker
                tracker.antenna.point(
                    float(f"{value[0]:.3f}"), float(f"{value[1]:.3f}"), tracker.name, arrival
                )
                tracker.track_commands += 1
                return
            elif stage == _TUNE:
                tuner = loop.tuner
                frequency = float(f"{value[2]:.1f}")
                value = tuner._take_tune(frequency, arrival)
                if value is None:
                    return
                via = loop.to_tuner._peer
                tuner._forwarded(frequency, arrival)
                stage = _FREQ_AT_BUS
                arrival = via._hop(arrival)
            elif stage == _FREQ_AT_BUS:
                bus = loop.bus
                via = bus.attached(loop.proxy.name)
                if via is None:
                    bus._unroutable(loop.proxy.name, arrival)
                    return
                bus.routed += 1
                stage = _FREQ_AT_PROXY
                arrival = via._hop(arrival)
            elif stage == _FREQ_AT_PROXY:
                proxy = loop.proxy
                if loop.pbcom is None:
                    proxy._apply_frequency(float(value), arrival)
                    return
                if not proxy._take_frequency(value):
                    return
                via = proxy._pbcom
                stage = _FREQ_AT_PBCOM
                arrival = proxy._send_frequency(value, arrival)
            else:
                loop.pbcom._apply_frequency(float(value), arrival)
                return
        if wake is True or wake is via:
            self.kernel.schedule_at(arrival, via._peer._deliver, self._wire(stage, value))
        else:
            self._owed.append((arrival, stage, via, value))

    def _wire(self, stage: int, value: Any) -> str:
        """The wire of a folded hop, as its sender sent it."""
        if stage == _TRACK_AT_BUS or stage == _TRACK:
            return encode_message(self._track(value[0], value[1]))
        if stage == _TUNE_AT_BUS or stage == _TUNE:
            return encode_message(self._tune(value[2]))
        if stage == _FREQ_AT_PBCOM:
            return freq_line(value)
        return encode_message(self._folded.tuner._radio_set_freq(value))
