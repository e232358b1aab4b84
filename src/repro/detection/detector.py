"""FD: the liveness-ping failure detector (paper §2.2).

Detection mechanics:

* every ``ping_period`` seconds (1 s in the paper, "determined from
  operational experience to minimize detection time without overloading
  mbus") FD sends an XML ping to every monitored component over the bus;
* a ping unanswered within ``reply_timeout`` is a miss;
  ``misses_to_declare`` consecutive misses declare the component failed;
* the bus itself is monitored: when ``mbus`` misses, only ``mbus`` is
  reported — other components' silence is unattributable while the bus is
  down, so their misses are ignored until the bus answers again;
* components named in a REC ``begin`` restart order are *suppressed* (their
  downtime is expected) until the matching ``complete`` order arrives;
* FD reports failures to REC over a dedicated control connection, not the
  bus, and answers REC's watchdog pings on it;
* FD also watches REC: if REC's control channel stays dead past a grace
  period, FD restarts the REC process — the FD half of the mutual-recovery
  special case ("the generalized procedural knowledge for how to choose the
  modules to restart ... is only in REC"; FD knows just this one move).

Hardening against lossy networks and fail-slow components
---------------------------------------------------------

The paper's FD assumes a quiet LAN and crash-only failures.  With
``timeout_policy="adaptive"`` the detector instead:

* derives its reply timeout from observed ping RTTs (Jacobson/Karels
  ``srtt + 4·rttvar`` plus a margin, clamped below the ping period so every
  round is judged before the next), in the spirit of accrual detectors;
* tracks a loss EWMA and requires extra consecutive misses to declare when
  the network is visibly lossy — trading a bounded amount of detection
  latency for a large false-positive reduction;
* attributes an *all-components-silent* round to the network (partition
  suspicion), extending the mbus-down suppression: declarations are held
  until any reply proves the fabric alive again;
* retracts a declaration (and tells REC to drop the queued report) when the
  declared component answers before the restart order lands — the
  spurious-restart guard.

Independently of the timeout policy, FD can drive an
:class:`~repro.components.health.EndToEndProber` (``probe_period > 0``) to
unmask *zombies* — processes that answer liveness pings while dropping real
work — and it counts ground-truth false positives per component (the
process was running and undegraded when declared).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro.components.base import BusAttachedBehavior
from repro.components.health import EndToEndProber, probe_reply_info
from repro.errors import ChannelClosedError
from repro.obs import events as ev
from repro.types import Severity, SimTime
from repro.xmlcmd.commands import (
    CommandMessage,
    FailureReport,
    Message,
    PingReply,
    PingRequest,
    RestartOrder,
    encode_message,
    parse_message,
)
from repro.xmlcmd.fastpath import decode_envelope, encode_ping_wire

#: Control-channel verb asking REC to drop a queued report (see
#: :meth:`FailureDetector._maybe_retract`).
RETRACT_REPORT_VERB = "retract-report"

if TYPE_CHECKING:  # pragma: no cover
    from repro.procmgr.manager import ProcessManager
    from repro.procmgr.process import SimProcess
    from repro.transport.channel import Endpoint
    from repro.transport.network import Network


class FailureDetector(BusAttachedBehavior):
    """The FD behavior."""

    def __init__(
        self,
        process: "SimProcess",
        network: "Network",
        manager: "ProcessManager",
        monitored: Sequence[str],
        bus_address: str = "mbus:7000",
        rec_name: str = "rec",
        rec_ctl_address: str = "rec:7100",
        ping_period: SimTime = 1.0,
        reply_timeout: SimTime = 0.2,
        misses_to_declare: int = 1,
        report_interval: SimTime = 1.0,
        rec_grace: SimTime = 2.0,
        bus_component: str = "mbus",
        warmup_grace: SimTime = 60.0,
        timeout_policy: str = "fixed",
        adaptive_margin: SimTime = 0.05,
        probe_period: SimTime = 0.0,
        probe_timeout: SimTime = 0.5,
        probe_misses_to_declare: int = 2,
    ) -> None:
        super().__init__(process, network, bus_address)
        if timeout_policy not in ("fixed", "adaptive"):
            raise ValueError(f"unknown timeout policy {timeout_policy!r}")
        self.manager = manager
        self.monitored = list(monitored)
        self.rec_name = rec_name
        self.rec_ctl_address = rec_ctl_address
        self.ping_period = ping_period
        self.reply_timeout = reply_timeout
        self.misses_to_declare = misses_to_declare
        self.report_interval = report_interval
        self.rec_grace = rec_grace
        self.bus_component = bus_component
        #: "fixed" is the paper's constant reply timeout; "adaptive" enables
        #: the RTT-derived timeout, loss-aware miss threshold, partition
        #: suspicion, and the spurious-restart (retraction) guard.
        self.timeout_policy = timeout_policy
        self.adaptive_margin = adaptive_margin
        #: End-to-end probing cadence; 0 disables the prober entirely.
        self.probe_period = probe_period
        self.probe_timeout = probe_timeout
        self.probe_misses_to_declare = probe_misses_to_declare
        #: Adaptive-timeout clamp, hoisted off the per-round path: the cap
        #: keeps every judgement inside its own round (see
        #: :meth:`_current_timeout`).
        self._timeout_cap = 0.9 * ping_period
        #: After this long since FD's own start, judge even components this
        #: incarnation has never seen alive.  Bounds the blind spot where a
        #: component fails, FD itself is then restarted, and the fresh FD —
        #: protected by warm-up — would otherwise never report the still-dead
        #: component.
        self.warmup_grace = warmup_grace
        self._started_at: SimTime = 0.0

        self._ctl: Optional["Endpoint"] = None
        self._ctl_pending = False
        self._seq = 0
        #: component -> (seq, sent_at) of the unanswered ping, if any.
        self._outstanding: Dict[str, Tuple[int, SimTime]] = {}
        self._misses: Dict[str, int] = {}
        self._warmed: Set[str] = set()
        self._suspected: Set[str] = set()
        #: What declared each suspect: "ping" or "probe".  Ping replies
        #: never clear a probe-based suspicion (zombies answer pings).
        self._suspected_via: Dict[str, str] = {}
        self._suppressed: Set[str] = set()
        self._last_report_at: Dict[str, SimTime] = {}
        #: Components whose report reached REC and has not been consumed by
        #: a restart order or a retraction yet.
        self._reported: Set[str] = set()
        # Adaptive-timeout state (Jacobson/Karels RTT estimator + loss EWMA).
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._loss_ewma = 0.0
        # Partition suspicion: per-round accounting of who was pinged over
        # the bus and who answered.  Evaluated by the round's *first* judge
        # — by then every reply that beat the timeout has arrived, so the
        # verdict lands before any declaration from the same round.
        self._round_pinged: Set[str] = set()
        self._round_replied: Set[str] = set()
        self._round_judged = True
        self._partition_suspected = False
        self._prober: Optional[EndToEndProber] = None
        self._rec_seq = 0
        self._rec_outstanding: Optional[int] = None
        self._rec_misses = 0
        self._rec_restart_inflight = False
        self.reports_sent = 0
        #: Ground-truth accounting (cumulative across FD restarts).
        self.false_positives: Dict[str, int] = {}
        self.retractions: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        self._outstanding = {}
        self._misses = {name: 0 for name in self.monitored}
        self._warmed = set()
        self._suspected = set()
        self._suspected_via = {}
        self._suppressed = set()
        self._last_report_at = {}
        self._reported = set()
        self._srtt = None
        self._rttvar = 0.0
        self._loss_ewma = 0.0
        self._round_pinged = set()
        self._round_replied = set()
        self._round_judged = True
        self._partition_suspected = False
        self._rec_outstanding = None
        self._rec_misses = 0
        self._rec_restart_inflight = False
        self._started_at = self.kernel.now
        super().on_start()
        self._connect_ctl()
        if self.probe_period > 0:
            self._prober = EndToEndProber(
                self.kernel,
                [c for c in self.monitored if c != self.bus_component],
                self.send,
                sender=self.name,
                period=self.probe_period,
                timeout=self.probe_timeout,
                misses_to_suspect=self.probe_misses_to_declare,
                on_suspect=self._on_probe_suspect,
                on_recovered=self._on_probe_recovered,
                skip=self._probe_skip,
            )
            self._prober.start()
        self.kernel.schedule_after(self.ping_period, self._tick)

    def on_kill(self) -> None:
        super().on_kill()
        if self._prober is not None:
            self._prober.stop()
            self._prober = None
        if self._ctl is not None:
            self._ctl.close()
            self._ctl = None

    # ------------------------------------------------------------------
    # control channel to REC
    # ------------------------------------------------------------------

    def _connect_ctl(self) -> None:
        self._ctl_pending = False
        if not self._alive or (self._ctl is not None and self._ctl.open):
            return
        self._ctl = self.network.dial(self.name, self.rec_ctl_address)
        if self._ctl is None:
            self._schedule_ctl_reconnect()
            return
        self._ctl.on_message(self._on_ctl_raw)
        self._ctl.on_close(self._on_ctl_close)
        self.trace(ev.CTL_CONNECTED)

    def _on_ctl_close(self) -> None:
        self._ctl = None
        if self._alive:
            self._schedule_ctl_reconnect()

    def _schedule_ctl_reconnect(self) -> None:
        if self._ctl_pending or not self._alive:
            return
        self._ctl_pending = True
        self.network.redial(self.name, self.rec_ctl_address, 0.25, self._connect_ctl)

    def _ctl_send(self, message: Message) -> bool:
        return self._ctl_send_raw(encode_message(message))

    def _ctl_send_raw(self, wire: str) -> bool:
        if self._ctl is None or not self._ctl.open:
            return False
        try:
            self._ctl.send(wire)
        except ChannelClosedError:
            return False
        return True

    def _on_ctl_raw(self, raw: str) -> None:
        if not self._alive:
            return
        # Watchdog traffic (REC's pings at us, its replies to ours) dominates
        # this channel; both directions ride the templated wire form, so the
        # generic parser only sees restart orders and the odd control verb.
        env = decode_envelope(raw)
        if env is not None:
            if env.kind == "ping":
                self._ctl_send_raw(
                    encode_ping_wire("ping-reply", self.name, env.sender, env.seq)
                )
                return
            if env.kind == "ping-reply":
                if env.seq == self._rec_outstanding:
                    self._rec_outstanding = None
                    self._rec_misses = 0
                return
        message = parse_message(raw)
        if isinstance(message, PingRequest):
            self._ctl_send(PingReply(sender=self.name, target=message.sender, seq=message.seq))
            return
        if isinstance(message, PingReply):
            if message.seq == self._rec_outstanding:
                self._rec_outstanding = None
                self._rec_misses = 0
            return
        if isinstance(message, RestartOrder):
            if message.reason == "begin":
                self._suppressed.update(message.components)
                for component in message.components:
                    # The order landed: the report was consumed, so it is
                    # no longer retractable.
                    self._reported.discard(component)
                self.trace(ev.SUPPRESSION_BEGIN, components=message.components)
            elif message.reason == "complete":
                for component in message.components:
                    self._suppressed.discard(component)
                    self._misses[component] = 0
                    self._outstanding.pop(component, None)
                    self._suspected.discard(component)
                    self._suspected_via.pop(component, None)
                    if self._prober is not None:
                        self._prober.reset(component)
                self.trace(ev.SUPPRESSION_END, components=message.components)

    # ------------------------------------------------------------------
    # ping loop
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        if not self._alive:
            return
        self.kernel.schedule_after(self.ping_period, self._tick)
        if not self.connected:
            # Try the bus right now rather than waiting for the retry loop:
            # a successful TCP connect is itself evidence the bus is back,
            # and avoids falsely judging mbus in the reconnect gap.
            self._try_connect()
        adaptive = self.timeout_policy == "adaptive"
        if adaptive:
            if not self.connected and self._partition_suspected:
                # No bus connection: the mbus-down attribution owns this
                # case; partition suspicion only reasons about silence on a
                # connection that looks healthy.
                self._partition_suspected = False
                self.trace(ev.PARTITION_CLEARED)
            self._round_pinged = set()
            self._round_replied = set()
            self._round_judged = False
        self._ping_rec()
        timeout = self._current_timeout()
        now = self.kernel.now
        # Hot loop: one ping per monitored component per second, sent back
        # to back, and one judgement for the whole round.  Pings go straight
        # from the wire template (no PingRequest object — ``send`` would
        # produce the identical bytes via ``encode_message``); the judgement
        # is scheduled handle-free: nothing ever cancels one.
        pinged = []
        for component in self.monitored:
            if component in self._suppressed:
                continue
            self._seq += 1
            self._outstanding[component] = (self._seq, now)
            if self._send_ping_wire(component, self._seq):
                if adaptive:
                    self._round_pinged.add(component)
            elif component != self.bus_component:
                # Cannot even reach the bus: only the bus's own ping can be
                # meaningfully judged.  Treat as an immediate miss for mbus,
                # and leave others unjudged.
                self._outstanding.pop(component, None)
                continue
            pinged.append((component, self._seq))
        if pinged:
            self.kernel.schedule_after(timeout, self._judge_round, pinged)

    def _send_ping_wire(self, component: str, seq: int) -> bool:
        """Send one liveness ping, byte-identical to
        ``send(PingRequest(...))`` including its fail-slow gates (a hung or
        zombie FD emits no ping requests)."""
        endpoint = self._endpoint
        if (
            self.process.degraded_mode is not None
            or endpoint is None
            or not endpoint.open
        ):
            return False
        try:
            endpoint.send(encode_ping_wire("ping", self.name, component, seq))
        except ChannelClosedError:
            return False
        return True

    def _on_raw(self, raw: str) -> None:
        # Ping replies are FD's dominant inbound traffic; lift them off the
        # generic dispatch straight from the envelope.  Any degraded mode
        # (hang drops everything, a zombie FD consumes nothing real) goes
        # to the base class, which owns those gates.
        if not self._alive or self.process.degraded_mode is not None:
            super()._on_raw(raw)
            return
        env = decode_envelope(raw)
        if env is not None and env.kind == "ping-reply":
            self._on_ping_reply(env.sender, env.seq)
        else:
            self._deliver(raw, env)

    def on_message(self, message: Message) -> None:
        if isinstance(message, PingReply):
            # Non-canonical wire forms (different spacing/attribute order)
            # miss the fast path above but mean the same thing.
            self._on_ping_reply(message.sender, message.seq)
            return
        info = probe_reply_info(message)
        if info is not None and self._prober is not None:
            self._prober.on_reply(*info)

    def _on_ping_reply(self, component: str, seq: int) -> None:
        self._warmed.add(component)
        entry = self._outstanding.get(component)
        if entry is not None and entry[0] == seq:
            del self._outstanding[component]
            if self.timeout_policy == "adaptive":
                self._round_replied.add(component)
                self._observe_rtt(self.kernel.now - entry[1])
                self._observe_loss(0.0)
                if self._partition_suspected:
                    self._partition_suspected = False
                    self.trace(ev.PARTITION_CLEARED, component=component)
            self._misses[component] = 0
            if (
                component in self._suspected
                and self._suspected_via.get(component) != "probe"
            ):
                self._suspected.discard(component)
                self._suspected_via.pop(component, None)
                self.trace(ev.COMPONENT_RECOVERED_OBSERVED, component=component)
                self._maybe_retract(component, "ping")

    def _judge_round(self, pinged: List[Tuple[str, int]]) -> None:
        """Judge every ping of one round, in the order they were sent.

        One event where there used to be one per component: those shared a
        timestamp and held sequence numbers handed out inside one ``_tick``,
        so nothing could ever run between them (DESIGN.md §9).
        """
        judge = self._judge
        for component, seq in pinged:
            judge(component, seq)

    def _judge(self, component: str, seq: int) -> None:
        if not self._alive:
            return
        entry = self._outstanding.get(component)
        if entry is None or entry[0] != seq:
            return  # answered (or superseded by a later ping)
        del self._outstanding[component]
        if component in self._suppressed:
            return
        if (
            component not in self._warmed
            and self.kernel.now - self._started_at < self.warmup_grace
        ):
            # Warm-up: never judge a component this FD incarnation has not
            # yet seen alive — during boot, components attach to the bus at
            # very different times, and reporting them would storm REC with
            # spurious restarts.  The grace deadline bounds the blind spot:
            # anything still silent long after FD's start is genuinely down.
            return
        self._misses[component] = self._misses.get(component, 0) + 1
        if self.timeout_policy == "adaptive":
            if not self._round_judged:
                # First judge of the round: every reply that beat the
                # timeout is in, so the all-silent verdict is decidable now
                # — before this round produces any declaration.
                self._round_judged = True
                self._evaluate_round()
            if self._misses[component] == 1 and component not in self._suspected:
                # Only the first miss of a run samples the loss estimator: a
                # dead component misses every round and would otherwise
                # saturate it.
                self._observe_loss(1.0)
        if self._misses[component] < self._required_misses():
            return
        # Attribution: while the bus is suspected, other components' silence
        # proves nothing.
        if component != self.bus_component and self.bus_component in self._suspected:
            return
        if self._partition_suspected and self.connected:
            # All-monitored silence with a live bus connection points at the
            # fabric, not the components; hold declarations until a reply
            # proves the network again.
            return
        if component not in self._suspected:
            self._declare(component, "ping")
        self._report(component)

    def _declare(self, component: str, via: str) -> None:
        self._suspected.add(component)
        self._suspected_via[component] = via
        self.trace(
            ev.FAILURE_DETECTED,
            severity=Severity.WARNING,
            component=component,
        )
        self.kernel.trace.emit(self.name, ev.DETECTION, component=component, via=via)
        # Ground-truth accounting (the detector cannot act on this — it is
        # the experiment's measure of detection accuracy, not FD state).
        process = self.manager.maybe_get(component)
        if (
            process is not None
            and process.is_running
            and process.degraded_mode is None
        ):
            self.false_positives[component] = self.false_positives.get(component, 0) + 1
            self.trace(
                ev.DETECTION_FALSE_POSITIVE,
                severity=Severity.WARNING,
                component=component,
                via=via,
            )

    def _report(self, component: str) -> None:
        now = self.kernel.now
        last = self._last_report_at.get(component)
        if last is not None and now - last < self.report_interval:
            return
        report = FailureReport(
            sender=self.name,
            target=self.rec_name,
            failed_components=(component,),
            detected_at=now,
        )
        if self._ctl_send(report):
            self._last_report_at[component] = now
            self._reported.add(component)
            self.reports_sent += 1

    def _maybe_retract(self, component: str, via: str) -> None:
        """Spurious-restart guard: withdraw a report the order hasn't consumed.

        Only the hardened (adaptive) detector retracts; the fixed-timeout
        detector keeps the paper's fire-and-forget reporting, which is what
        the ablation contrasts.
        """
        if self.timeout_policy != "adaptive":
            return
        if component in self._suppressed or component not in self._reported:
            return
        self._reported.discard(component)
        self.retractions[component] = self.retractions.get(component, 0) + 1
        self.trace(
            ev.DETECTION_RETRACTED,
            severity=Severity.WARNING,
            component=component,
            via=via,
        )
        self._ctl_send(
            CommandMessage(
                sender=self.name,
                target=self.rec_name,
                verb=RETRACT_REPORT_VERB,
                params={"component": component},
            )
        )

    # ------------------------------------------------------------------
    # adaptive timeout machinery
    # ------------------------------------------------------------------

    def _current_timeout(self) -> SimTime:
        """The reply timeout for this round, by policy."""
        if self.timeout_policy != "adaptive" or self._srtt is None:
            return self.reply_timeout
        timeout = self._srtt + 4.0 * self._rttvar + self.adaptive_margin
        # The cap keeps every judgement inside its own round: the next tick
        # overwrites the outstanding seq, and a judge landing after it would
        # silently lose the miss.
        return min(max(timeout, self.adaptive_margin), self._timeout_cap)

    def _observe_rtt(self, rtt: float) -> None:
        if self._srtt is None:
            self._srtt = rtt
            self._rttvar = rtt / 2.0
            return
        err = rtt - self._srtt
        self._srtt += 0.125 * err
        self._rttvar += 0.25 * (abs(err) - self._rttvar)

    def _observe_loss(self, sample: float) -> None:
        self._loss_ewma += 0.1 * (sample - self._loss_ewma)

    def _required_misses(self) -> int:
        """Loss-aware declaration threshold (adaptive policy only)."""
        if self.timeout_policy != "adaptive":
            return self.misses_to_declare
        if self._loss_ewma >= 0.15:
            return self.misses_to_declare + 2
        if self._loss_ewma >= 0.03:
            return self.misses_to_declare + 1
        return self.misses_to_declare

    def _evaluate_round(self) -> None:
        """Partition suspicion: is *everyone* we pinged this round silent?"""
        if not self.connected or self._partition_suspected:
            return
        if len(self._round_pinged) >= 2 and not self._round_replied:
            self._partition_suspected = True
            self.trace(
                ev.PARTITION_SUSPECTED,
                severity=Severity.WARNING,
                components=tuple(sorted(self._round_pinged)),
            )

    # ------------------------------------------------------------------
    # end-to-end probing (zombie unmasking)
    # ------------------------------------------------------------------

    def _probe_skip(self, component: str) -> bool:
        return (
            component in self._suppressed
            or not self.connected
            or component not in self._warmed
            or self.bus_component in self._suspected
            or self._partition_suspected
        )

    def _on_probe_suspect(self, component: str) -> None:
        if self._misses.get(component, 0) > 0:
            # The ping path sees trouble too — it owns attribution (probes
            # exist to catch components that *pass* pings).
            return
        if component not in self._suspected:
            self._declare(component, "probe")
        self._report(component)

    def _on_probe_recovered(self, component: str) -> None:
        if (
            component in self._suspected
            and self._suspected_via.get(component) == "probe"
        ):
            self._suspected.discard(component)
            self._suspected_via.pop(component, None)
            self.trace(ev.COMPONENT_RECOVERED_OBSERVED, component=component)
            self._maybe_retract(component, "probe")

    # ------------------------------------------------------------------
    # REC watchdog (the FD half of §2.2's mutual special case)
    # ------------------------------------------------------------------

    def _ping_rec(self) -> None:
        if self._rec_restart_inflight:
            rec = self.manager.maybe_get(self.rec_name)
            if rec is not None and rec.is_running:
                self._rec_restart_inflight = False
                self._rec_misses = 0
            return
        self._rec_seq += 1
        self._rec_outstanding = self._rec_seq
        sent = self._ctl_send_raw(
            encode_ping_wire("ping", self.name, self.rec_name, self._rec_seq)
        )
        if not sent:
            self._rec_miss()
            return
        self.kernel.schedule_after(self.reply_timeout, self._judge_rec, self._rec_seq)

    def _judge_rec(self, seq: int) -> None:
        if not self._alive or self._rec_outstanding != seq:
            return
        self._rec_outstanding = None
        self._rec_miss()

    def _rec_miss(self) -> None:
        self._rec_misses += 1
        if self._rec_misses * self.ping_period < self.rec_grace:
            return
        rec = self.manager.maybe_get(self.rec_name)
        if rec is None or self._rec_restart_inflight:
            return
        self._rec_restart_inflight = True
        self._rec_misses = 0
        self.trace(ev.REC_RESTART, severity=Severity.WARNING)
        if self._suppressed:
            # The dead REC's in-flight restart order will never complete,
            # so its suppression would never lift: components it covered
            # would go unwatched forever — a recovery deadlock.  Lift it
            # here; the fresh REC's reconciliation (or our re-reports)
            # picks up whatever is genuinely still down.
            stale = tuple(sorted(self._suppressed))
            for component in stale:
                self._suppressed.discard(component)
                self._misses[component] = 0
                self._outstanding.pop(component, None)
                self._suspected.discard(component)
                self._suspected_via.pop(component, None)
                self._reported.discard(component)
                if self._prober is not None:
                    self._prober.reset(component)
            self.trace(
                ev.SUPPRESSION_END, components=stale, reason="supervisor-restart"
            )
        self.manager.restart([self.rec_name])
