"""REC: the recovery module (paper §2.2, §3.3) — the FD↔REC front end.

REC hosts the recoverer and the oracle (via the
:class:`~repro.core.policy.RestartPolicy`).  The episode machine itself —
deciding, executing one restart action at a time, observing, escalating —
is :class:`~repro.core.recovery_engine.RecoveryEngine`; this module is the
transport around it.  It:

* listens on a dedicated control address for the failure detector's
  :class:`~repro.xmlcmd.commands.FailureReport` messages (FD↔REC traffic is
  deliberately *not* on the bus, "for improved isolation") and feeds them
  to the engine;
* tells FD which components are being bounced (``RestartOrder`` with reason
  ``begin``) so FD does not report the restart's own fallout, and when the
  batch is back up (reason ``complete``) so FD resumes watching them;
* restarts FD when the control channel stays silent past a grace period
  (and never sooner than FD's own ping period) — the REC half of the
  FD/REC mutual-recovery special case.  FD pings REC
  every round, so that ping is REC's heartbeat: one handle-free deadline
  checks it, no ping of REC's own.

REC is itself a supervised process, but not all of its memory dies with
it: the :class:`~repro.core.policy.RestartPolicy` belongs to the station
(``MercuryStation`` builds one and hands it to every REC incarnation), so
the episodes, each one's escalation position and the restart-budget
history survive REC's death.  What a restarted REC rebuilds crash-only
(the engine's ``new_incarnation``) is the rest: it reconciles the episodes
that were half done — a member running moves to ``observing``, one still
down is dropped for FD to re-report — fences the dead incarnation's
callbacks, and rebuilds the learning oracle from the session store, the
only state it restores rather than inherits.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Tuple, TYPE_CHECKING

from repro.components.base import Behavior
from repro.core.policy import RestartPolicy
from repro.core.recovery_engine import RecoveryEngine
from repro.core.recovery_strategies import StrategyMap
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

if TYPE_CHECKING:  # pragma: no cover
    from repro.procmgr.manager import ProcessManager
    from repro.procmgr.process import SimProcess
    from repro.transport.channel import Endpoint
    from repro.transport.network import Network

class RecoveryModule(Behavior):
    """The REC behavior."""

    def __init__(
        self,
        process: "SimProcess",
        network: "Network",
        manager: "ProcessManager",
        policy: RestartPolicy,
        ctl_address: str = "rec:7100",
        observation_window: SimTime = 3.0,
        fd_name: str = "fd",
        fd_ping_period: SimTime = 1.0,
        fd_ping_timeout: SimTime = 0.5,
        fd_grace: SimTime = 2.0,
        strategies: Optional[StrategyMap] = None,
        session_store=None,
    ) -> None:
        super().__init__(process)
        self.network = network
        self.manager = manager
        self.policy = policy
        self.ctl_address = ctl_address
        self.fd_name = fd_name
        #: How often FD pings REC: the heartbeat's period.
        self.fd_ping_period = fd_ping_period
        self.fd_ping_timeout = fd_ping_timeout
        self.fd_grace = fd_grace
        self.engine = RecoveryEngine(
            self.kernel,
            manager,
            policy,
            name=process.name,
            observation_window=observation_window,
            strategies=strategies,
            session_store=session_store,
            announce=self._announce,
        )
        #: Decisions executed, for tests and reports.
        self.restart_log = self.engine.restart_log
        #: ``request_restart(cell_id, reason)``: the rejuvenation entry point.
        self.request_restart = self.engine.request_restart

        self._listener = None
        self._fd_endpoint: Optional["Endpoint"] = None
        #: When the control channel last carried anything from FD.
        self._fd_heard_at: SimTime = 0.0
        self._fd_restart_inflight = False
        manager.subscribe(self._on_lifecycle)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        self._fd_heard_at = self.kernel.now
        self._fd_restart_inflight = False
        self._listener = self.network.listen(self.ctl_address, self._on_accept)
        self.trace(ev.REC_LISTENING, address=self.ctl_address)
        if self.process.start_count > 1:
            self.engine.new_incarnation()
        else:
            self.engine.start()
        self._arm_fd_deadline()

    def on_kill(self) -> None:
        self.engine.stop()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self._fd_endpoint is not None:
            self._fd_endpoint.close()
            self._fd_endpoint = None

    def _on_lifecycle(self, process: "SimProcess", event: str) -> None:
        if not self.engine.alive:
            return
        if event == "ready" and process.name == self.fd_name:
            self._fd_restart_inflight = False
            self._fd_heard_at = self.kernel.now
        self.engine.on_lifecycle(process.name, event)

    # ------------------------------------------------------------------
    # control channel
    # ------------------------------------------------------------------

    def _on_accept(self, endpoint: "Endpoint") -> None:
        # One live FD connection at a time; a reconnecting FD supersedes the
        # old channel (whose close may still be in flight).
        self.kernel.supervision.poke(self.name)
        self._fd_endpoint = endpoint
        endpoint.on_message(self._on_ctl_raw)
        endpoint.on_close(partial(self._on_ctl_close, endpoint))
        self._fd_heard_at = self.kernel.now
        action = self.engine.action
        if action is not None:
            # A reconnecting FD (a restarted one, typically) never saw the
            # order of the restart in flight; re-announce it, so that it
            # suppresses what is meant to be down instead of reporting it.
            self._announce(action.cell, tuple(sorted(action.batch)), "begin")

    def _on_ctl_close(self, endpoint: "Endpoint") -> None:
        self.kernel.supervision.poke(self.name)
        if self._fd_endpoint is endpoint:
            self._fd_endpoint = None

    def _ctl_send(self, message: Message) -> bool:
        return self._ctl_send_raw(encode_message(message))

    def _ctl_send_raw(self, wire: str) -> bool:
        if self._fd_endpoint is None or not self._fd_endpoint.open:
            return False
        try:
            self._fd_endpoint.send_base(wire)
        except ChannelClosedError:
            return False
        return True

    def _announce(self, cell_id: str, batch: Tuple[str, ...], reason: str) -> None:
        """Tell FD a restart action begins/completed (suppression window)."""
        self._ctl_send(
            RestartOrder(
                sender=self.name,
                target=self.fd_name,
                cell_id=cell_id,
                components=batch,
                reason=reason,
            )
        )

    def _on_ctl_raw(self, raw: str) -> None:
        # A hung REC consumes nothing: it neither answers FD's ping (so FD's
        # REC watchdog fires) nor takes in a report.
        if not self.engine.alive or self.process.degraded_mode == "hang":
            return
        self._fd_heard_at = self.kernel.now
        # FD's round ping dominates this channel and is answered from the
        # envelope; failure reports and the odd control verb are decoded
        # from their wire's memo, and dispatch O(1) on the message class
        # instead of walking an isinstance chain.
        env = decode_envelope(raw)
        if env is not None and env.kind == "ping":
            self._ctl_send_raw(
                encode_ping_wire("ping-reply", self.name, env.sender, env.seq)
            )
            return
        self.kernel.supervision.poke(self.name)
        message = parse_message(raw)
        handler = _CTL_DISPATCH.get(message.__class__)
        if handler is not None:
            handler(self, message)

    def _on_ctl_ping(self, message: PingRequest) -> None:
        # A ping only the parser could judge (entities, children) misses
        # the envelope above but means the same thing.
        self._ctl_send(PingReply(sender=self.name, target=message.sender, seq=message.seq))

    def _on_ctl_failure_report(self, message: FailureReport) -> None:
        for component in message.failed_components:
            self.trace(ev.FAILURE_REPORTED, component=component)
            if not self.engine.expects_down(component):
                self.engine.report_failure(component)

    def _on_ctl_command(self, message: CommandMessage) -> None:
        # FD's spurious-restart guard: the declared component answered
        # again before we acted.
        if message.verb == "retract-report":
            self.engine.retract_report(message.params.get("component", ""))

    # ------------------------------------------------------------------
    # FD watchdog (the REC half of §2.2's mutual special case)
    # ------------------------------------------------------------------

    def _fd_deadline(self) -> SimTime:
        # A whole grace of silence, and never less than FD's own period; the
        # ping timeout is the slack a heartbeat's latency needs.
        return (
            self._fd_heard_at
            + max(self.fd_grace, self.fd_ping_period)
            + self.fd_ping_timeout
        )

    def _arm_fd_deadline(self) -> None:
        # Never cancelled: a deadline that finds FD heard from since it
        # was armed re-arms from the newer stamp, or, while FD folds its
        # quiet rounds, sleeps on the supervision clock until the poke
        # that ends the fold (DESIGN.md §9), so a healthy folded station
        # pays no event at all.  The incarnation fences a dead REC's
        # deadline.
        self.kernel.schedule_at(
            self._fd_deadline(), self._check_fd_deadline, self.process.start_count
        )

    def _wake_fd_deadline(self) -> None:
        # The poke that ended FD's fold, after FD's catch-up: the folded
        # heartbeats stop here at the latest, so re-arm from the last one.
        self._fd_heard_at = max(
            self._fd_heard_at, self.kernel.supervision.heard(self.kernel.now)
        )
        self._arm_fd_deadline()

    def _check_fd_deadline(self, incarnation: int) -> None:
        if not self.engine.alive or incarnation != self.process.start_count:
            return
        now = self.kernel.now
        supervision = self.kernel.supervision
        # FD's folded rounds (DESIGN.md §9) pinged REC all the same.
        self._fd_heard_at = max(self._fd_heard_at, supervision.heard(now))
        if supervision.folded and self._fd_deadline() > now:
            supervision.sleep(self._wake_fd_deadline)
            return
        if self._fd_deadline() <= now:
            # Silent for a whole grace.  The restart opens the next one.
            self._fd_heard_at = now
            fd = self.manager.maybe_get(self.fd_name)
            if fd is not None and not self._fd_restart_inflight:
                self._fd_restart_inflight = True
                self.trace(ev.FD_RESTART, severity=Severity.WARNING)
                self.manager.restart([self.fd_name])
        self._arm_fd_deadline()


#: O(1) control-channel dispatch on the concrete message class.
#: ``parse_message`` returns exactly these types, so a dict hit replaces
#: the old isinstance ladder; unknown classes fall through silently, as
#: the ladder's final case did.
_CTL_DISPATCH = {
    PingRequest: RecoveryModule._on_ctl_ping,
    FailureReport: RecoveryModule._on_ctl_failure_report,
    CommandMessage: RecoveryModule._on_ctl_command,
}
