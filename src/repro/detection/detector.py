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
  bus;
* FD also watches REC: it pings REC on that connection every round, and if
  REC stays silent past a grace period, FD restarts the REC process — the
  FD half of the mutual-recovery special case ("the generalized procedural
  knowledge for how to choose the modules to restart ... is only in REC";
  FD knows just this one move).  The same ping is FD's heartbeat to REC,
  whose deadline restarts a silent FD;
* a degraded (hung or zombie) FD does nothing on its round: no pings, no
  judgements, no reports and no heartbeat, so REC's deadline restarts it;
* a round that can see nothing — every ping would be answered, and
  nothing on the station is changing — is *folded*: FD keeps its grid but
  executes no such round, and sleeps on the kernel's supervision clock
  until something that a round could see is about to change; it then
  catches up, replaying the round in flight at that instant exactly as
  stepping would have run it (DESIGN.md §9, "Quiet rounds").

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
        #: Station boot only (FD's first start): for this long, judge no
        #: component FD has not yet seen alive — components attach to the bus
        #: at very different times while the station boots.  A restarted FD
        #: judges at once; REC re-announces the restart it has in flight on
        #: reconnect, so the fresh FD suppresses what is meant to be down.
        self.warmup_grace = warmup_grace
        self._started_at: SimTime = 0.0

        self._ctl: Optional["Endpoint"] = None
        self._ctl_pending = False
        self._seq = 0
        #: component -> (seq, sent_at) of the unanswered ping, if any.
        self._outstanding: Dict[str, Tuple[int, SimTime]] = {}
        #: Adaptive policy: component -> (seq, sent_at) of its last ping
        #: judged missing, whose reply may yet arrive late.
        self._late: Dict[str, Tuple[int, SimTime]] = {}
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
        self._late = {}
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
        self.kernel.schedule_after(self.ping_period, self._tick, self.process.start_count)

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

    @property
    def ctl(self) -> Optional["Endpoint"]:
        """FD's side of the control channel to REC, if one is held."""
        return self._ctl

    def _connect_ctl(self) -> None:
        self._ctl_pending = False
        if not self._alive or (self._ctl is not None and self._ctl.open):
            return
        self._ctl = self.network.dial(self.name, self.rec_ctl_address)
        if self._ctl is None:
            self._schedule_ctl_reconnect()
            return
        self.kernel.supervision.poke(self.name)
        self._ctl.on_message(self._on_ctl_raw)
        self._ctl.on_close(self._on_ctl_close)
        self.trace(ev.CTL_CONNECTED)

    def _on_ctl_close(self) -> None:
        self.kernel.supervision.poke(self.name)
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
            self._ctl.send_base(wire)
        except ChannelClosedError:
            return False
        return True

    def _on_ctl_raw(self, raw: str) -> None:
        if not self._alive:
            return
        # REC's replies to the round ping dominate this channel and are
        # consumed from the envelope; restart orders and the odd control
        # verb are decoded from their wire's memo.
        env = decode_envelope(raw)
        if env is not None and env.kind == "ping-reply":
            self._on_rec_reply(env.seq)
            return
        self.kernel.supervision.poke(self.name)
        message = parse_message(raw)
        if isinstance(message, PingReply):
            self._on_rec_reply(message.seq)
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
                # REC serves its report queue as the action completes: a
                # report about a running process is dropped as stale, the
                # rest are acted on or queue for a process that is down and
                # cannot answer.  Nothing reported so far is retractable.
                self._reported.clear()
                self.trace(ev.SUPPRESSION_END, components=message.components)

    # ------------------------------------------------------------------
    # ping loop
    # ------------------------------------------------------------------

    def _tick(self, incarnation: int) -> None:
        # The incarnation fences a dead FD's ping loop: restarted before
        # its next tick, it would otherwise run beside the new one.
        if not self._alive or incarnation != self.process.start_count:
            return
        if self._quiet():
            self.kernel.supervision.fold(
                self.kernel.now,
                self.ping_period,
                self.network.latency.base,
                self._catch_up,
            )
            return
        self.kernel.schedule_after(self.ping_period, self._tick, incarnation)
        if self.process.degraded_mode is not None:
            return
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
        rec_seq = self._ping_rec()
        timeout = self._current_timeout()
        now = self.kernel.now
        # Hot loop: one ping per monitored component per second, sent back
        # to back, and one judgement for the whole round.  Pings go straight
        # from the wire template (no PingRequest object — ``send`` would
        # produce the identical bytes via ``encode_message``).
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
        if pinged or rec_seq is not None:
            self.kernel.schedule_after(timeout, self._judge_round, rec_seq, pinged)

    # ------------------------------------------------------------------
    # quiet rounds (DESIGN.md §9): folded, and caught up on at a poke
    # ------------------------------------------------------------------

    def _quiet(self) -> bool:
        """Whether this round, and every later one until something pokes
        the supervision clock, can change nothing: every ping FD would send
        is answered well inside the timeout, so no miss, no report, no
        restart.  The inputs that make rounds judge differently (the
        adaptive policy, a fault fabric, the end-to-end prober) step every
        round."""
        if (
            self.timeout_policy != "fixed"
            or self._prober is not None
            or self.process.degraded_mode is not None
            or self._outstanding
            or self._rec_outstanding is not None
            or self._rec_misses
            or self._rec_restart_inflight
        ):
            return False
        faults = self.network.faults
        if faults is not None and faults.active:
            return False
        endpoint, ctl = self._endpoint, self._ctl
        if endpoint is None or not endpoint.open or ctl is None or not ctl.open:
            return False
        manager = self.manager
        rec = manager.maybe_get(self.rec_name)
        if (
            rec is None
            or not rec.is_running
            or rec.degraded_mode is not None
            or rec.behavior.fd_endpoint is not ctl.peer
        ):
            return False
        bus = manager.maybe_get(self.bus_component)
        if bus is None or not bus.is_running or bus.degraded_mode is not None:
            return False
        broker = bus.behavior
        if broker.attached(self.name) is not endpoint.peer:
            return False
        for component in self.monitored:
            if component in self._suppressed:
                continue
            if (
                self._misses.get(component)
                or component in self._suspected
                or component not in self._warmed
            ):
                return False
            if component == self.bus_component:
                continue
            process = manager.maybe_get(component)
            if process is None or not process.is_running or process.degraded_mode is not None:
                return False
            attached = broker.attached(component)
            if attached is None or attached.peer is not process.behavior.endpoint:
                return False
        return True

    def _catch_up(self) -> None:
        """The supervision clock's poke: catch up on the folded rounds as
        stepping would have run them until now, then step again."""
        kernel = self.kernel
        rounds, tick, next_tick = kernel.supervision.unfold(kernel.now)
        pinged = [c for c in self.monitored if c not in self._suppressed]
        # Every folded round but the last is over: its pings were answered
        # and only their sequence numbers remain.
        self._seq += len(pinged) * (rounds - 1)
        self._rec_seq += rounds - 1
        self._replay_round(tick, pinged)
        kernel.schedule_at(next_tick, self._tick, self.process.start_count)

    def _replay_round(self, tick: SimTime, pinged: List[str]) -> None:
        """The round begun at ``tick``, as stepping has run it until now.

        A ping hop takes the base latency, so each path's hops fall on
        ``tick + b``, ``+ 2b``, … : the hops before now have happened (their
        only trace is FD's sequence numbers and REC's heartbeat, which the
        clock answers for), and the one in flight on each path is queued
        for its instant, to the endpoint it was sent to.  From there the
        real code carries the round — including whatever the poke is about
        to break — and its judge runs at ``tick + timeout``, as stepping
        scheduled it.  A hop due exactly now is still in flight: the poke
        comes first, as an event scheduled before the round began does.
        A round whose last hop has landed leaves only its sequence numbers.
        """
        kernel = self.kernel
        now = kernel.now
        base = self.network.latency.base
        hops = [tick + base]
        for _ in range(3):
            hops.append(hops[-1] + base)
        if hops[-1] < now:
            self._rec_seq += 1
            self._seq += len(pinged)
            return
        name = self.name
        endpoint, ctl = self._endpoint, self._ctl
        broker = self.manager.get(self.bus_component).behavior
        pending = False

        self._rec_seq += 1
        rec_seq = self._rec_seq
        rec_path = (
            (ctl.peer, encode_ping_wire("ping", name, self.rec_name, rec_seq)),
            (ctl, encode_ping_wire("ping-reply", self.rec_name, name, rec_seq)),
        )
        if self._queue_in_flight(hops, rec_path, now):
            self._rec_outstanding = rec_seq
            pending = True

        judged = []
        for component in pinged:
            self._seq += 1
            seq = self._seq
            ping = encode_ping_wire("ping", name, component, seq)
            reply = encode_ping_wire("ping-reply", component, name, seq)
            if component == self.bus_component:
                path = ((endpoint.peer, ping), (endpoint, reply))
            else:
                attached = broker.attached(component)
                path = (
                    (endpoint.peer, ping),
                    (attached.peer, ping),
                    (attached, reply),
                    (endpoint, reply),
                )
            if self._queue_in_flight(hops, path, now):
                self._outstanding[component] = (seq, tick)
                pending = True
            judged.append((component, seq))
        if pending:
            kernel.schedule_at(
                tick + self._current_timeout(), self._judge_round, rec_seq, judged
            )

    def _queue_in_flight(self, hops, path, now: SimTime) -> bool:
        """Queue the delivery of ``path``'s hop in flight at ``now`` (its
        ``(receiver, wire)`` pairs in order, the i-th arriving at
        ``hops[i]``); whether one was."""
        for arrival, (receiver, wire) in zip(hops, path):
            if arrival >= now:
                self.kernel.schedule_at(arrival, receiver._deliver, wire)
                return True
        return False

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
            endpoint.send_base(encode_ping_wire("ping", self.name, component, seq))
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
            # A ping reply only the parser could judge (entities,
            # children) misses the envelope above but means the same thing.
            self._on_ping_reply(message.sender, message.seq)
            return
        info = probe_reply_info(message)
        if info is not None and self._prober is not None:
            self._prober.on_reply(*info)

    def _on_ping_reply(self, component: str, seq: int) -> None:
        self._warmed.add(component)
        entry = self._outstanding.get(component)
        if entry is None or entry[0] != seq:
            late = self._late.get(component)
            if late is not None and late[0] == seq:
                # Adaptive only: the reply to a ping already judged missing.
                # It is proof of life, of the fabric and an RTT sample all
                # the same; dropping it would keep the estimator blind to
                # exactly the delays that outlast the timeout, and let a
                # slow component's misses run up to a declaration.
                del self._late[component]
                self._observe_rtt(self.kernel.now - late[1])
                self._misses[component] = 0
                self._clear_partition(component)
            return
        del self._outstanding[component]
        if self.timeout_policy == "adaptive":
            self._round_replied.add(component)
            self._observe_rtt(self.kernel.now - entry[1])
            self._observe_loss(0.0)
            self._clear_partition(component)
        self._misses[component] = 0
        if (
            component in self._suspected
            and self._suspected_via.get(component) != "probe"
        ):
            self._suspected.discard(component)
            self._suspected_via.pop(component, None)
            self.trace(ev.COMPONENT_RECOVERED_OBSERVED, component=component)
            self._maybe_retract(component, "ping")

    def _clear_partition(self, component: str) -> None:
        if self._partition_suspected:
            self._partition_suspected = False
            self.trace(ev.PARTITION_CLEARED, component=component)

    def _judge_round(
        self, rec_seq: Optional[int], pinged: List[Tuple[str, int]]
    ) -> None:
        """Judge every ping of one round, in the order they were sent: REC's
        first, then the components'.

        One event where there used to be one per component and one for REC:
        those shared a timestamp and held sequence numbers handed out inside
        one ``_tick``, so nothing could ever run between them (DESIGN.md §9).
        """
        if rec_seq is not None:
            self._judge_rec(rec_seq)
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
        if self.timeout_policy == "adaptive":
            self._late[component] = entry  # a reply may still come
        if component in self._suppressed:
            return
        if self._warming_up(component):
            # Boot: reporting components that have not attached yet would
            # storm REC with spurious restarts.
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
            or self._warming_up(component)
            or self.bus_component in self._suspected
            or self._partition_suspected
        )

    def _warming_up(self, component: str) -> bool:
        """Whether ``component`` is still inside the boot warm-up: FD's first
        start, less than ``warmup_grace`` ago, and not yet seen alive."""
        return (
            component not in self._warmed
            and self.process.start_count == 1
            and self.kernel.now - self._started_at < self.warmup_grace
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

    def _ping_rec(self) -> Optional[int]:
        """Ping REC; the seq for the round judge, or ``None`` if unjudged."""
        if self._rec_restart_inflight:
            rec = self.manager.maybe_get(self.rec_name)
            if rec is not None and rec.is_running:
                self._rec_restart_inflight = False
                self._rec_misses = 0
            return None
        self._rec_seq += 1
        self._rec_outstanding = self._rec_seq
        sent = self._ctl_send_raw(
            encode_ping_wire("ping", self.name, self.rec_name, self._rec_seq)
        )
        if not sent:
            self._rec_miss()
            return None
        return self._rec_seq

    def _on_rec_reply(self, seq: int) -> None:
        if seq == self._rec_outstanding:
            self._rec_outstanding = None
            self._rec_misses = 0

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
