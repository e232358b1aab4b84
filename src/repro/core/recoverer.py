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
* pings FD over the control channel and restarts FD if it stops answering
  — the REC half of the FD/REC mutual-recovery special case.

REC is itself a supervised process: killing it drops all in-flight episode
state.  A restarted REC rebuilds crash-only (the engine's
``new_incarnation``): it reconciles the half-done episodes against the
processes it can see, fences the dead incarnation's callbacks, and leaves
whatever is genuinely still down to FD's re-reports.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Tuple, TYPE_CHECKING

from repro.components.base import Behavior
from repro.core.policy import RestartPolicy
from repro.core.procedures import ProcedureMap
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
        restart_timeout: SimTime = 90.0,
        procedures: Optional[ProcedureMap] = None,
        strategies: Optional[StrategyMap] = None,
        session_store=None,
    ) -> None:
        super().__init__(process)
        self.network = network
        self.manager = manager
        self.policy = policy
        self.ctl_address = ctl_address
        self.fd_name = fd_name
        self.fd_ping_period = fd_ping_period
        self.fd_ping_timeout = fd_ping_timeout
        self.fd_grace = fd_grace
        self.engine = RecoveryEngine(
            self.kernel,
            manager,
            policy,
            name=process.name,
            observation_window=observation_window,
            restart_timeout=restart_timeout,
            procedures=procedures,
            strategies=strategies,
            session_store=session_store,
            announce=self._announce,
        )
        #: Per-cell recovery procedures (§7); pushing a cell's button runs
        #: its procedure, restart being the default.
        self.procedures = self.engine.procedures
        #: Decisions executed, for tests and reports.
        self.restart_log = self.engine.restart_log
        #: ``request_restart(cell_id, reason)``: the rejuvenation entry point.
        self.request_restart = self.engine.request_restart

        self._listener = None
        self._fd_endpoint: Optional["Endpoint"] = None
        self._ping_seq = 0
        self._outstanding_ping: Optional[int] = None
        self._fd_misses = 0
        self._fd_restart_inflight = False
        manager.subscribe(self._on_lifecycle)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        self._outstanding_ping = None
        self._fd_misses = 0
        self._fd_restart_inflight = False
        self._listener = self.network.listen(self.ctl_address, self._on_accept)
        self.trace(ev.REC_LISTENING, address=self.ctl_address)
        if self.process.start_count > 1:
            self.engine.new_incarnation()
        else:
            self.engine.start()
        self._schedule_fd_ping()

    def on_kill(self) -> None:
        self.engine.stop()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self._fd_endpoint is not None:
            self._fd_endpoint.close()
            self._fd_endpoint = None

    def _on_lifecycle(self, process: "SimProcess", event: str) -> None:
        if event != "ready" or not self.engine.alive:
            return
        if process.name == self.fd_name:
            self._fd_restart_inflight = False
            self._fd_misses = 0
        self.engine.member_ready(process.name)

    # ------------------------------------------------------------------
    # control channel
    # ------------------------------------------------------------------

    def _on_accept(self, endpoint: "Endpoint") -> None:
        # One live FD connection at a time; a reconnecting FD supersedes the
        # old channel (whose close may still be in flight).
        self._fd_endpoint = endpoint
        endpoint.on_message(self._on_ctl_raw)
        endpoint.on_close(partial(self._on_ctl_close, endpoint))
        self._fd_misses = 0

    def _on_ctl_close(self, endpoint: "Endpoint") -> None:
        if self._fd_endpoint is endpoint:
            self._fd_endpoint = None

    def _ctl_send(self, message: Message) -> bool:
        return self._ctl_send_raw(encode_message(message))

    def _ctl_send_raw(self, wire: str) -> bool:
        if self._fd_endpoint is None or not self._fd_endpoint.open:
            return False
        try:
            self._fd_endpoint.send(wire)
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
        if not self.engine.alive:
            return
        # Watchdog traffic (FD's pings at us, its replies to ours) dominates
        # this channel; both directions ride the templated wire form, so
        # the generic parser only sees failure reports and the odd control
        # verb — and those dispatch O(1) on the message class instead of
        # walking an isinstance chain.
        env = decode_envelope(raw)
        if env is not None:
            if env.kind == "ping":
                self._ctl_send_raw(
                    encode_ping_wire("ping-reply", self.name, env.sender, env.seq)
                )
                return
            if env.kind == "ping-reply":
                if env.seq == self._outstanding_ping:
                    self._outstanding_ping = None
                    self._fd_misses = 0
                return
        message = parse_message(raw)
        handler = _CTL_DISPATCH.get(message.__class__)
        if handler is not None:
            handler(self, message)

    def _on_ctl_ping(self, message: PingRequest) -> None:
        # Non-canonical wire forms miss the templated split above but mean
        # the same thing.
        self._ctl_send(PingReply(sender=self.name, target=message.sender, seq=message.seq))

    def _on_ctl_ping_reply(self, message: PingReply) -> None:
        if message.seq == self._outstanding_ping:
            self._outstanding_ping = None
            self._fd_misses = 0

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

    def _schedule_fd_ping(self) -> None:
        if not self.engine.alive:
            return
        # Handle-free, like FD's half: nothing ever cancels a watchdog timer.
        self.kernel.schedule_after(self.fd_ping_period, self._ping_fd)

    def _ping_fd(self) -> None:
        if not self.engine.alive:
            return
        if self._fd_restart_inflight:
            self._schedule_fd_ping()
            return
        self._ping_seq += 1
        self._outstanding_ping = self._ping_seq
        # Straight from the wire template: byte-identical to
        # ``_ctl_send(PingRequest(...))`` without the message object.
        sent = self._ctl_send_raw(
            encode_ping_wire("ping", self.name, self.fd_name, self._ping_seq)
        )
        if not sent:
            self._register_fd_miss()
            self._schedule_fd_ping()
            return
        self.kernel.schedule_after(
            self.fd_ping_timeout, self._check_fd_ping, self._ping_seq
        )
        self._schedule_fd_ping()

    def _check_fd_ping(self, seq: int) -> None:
        if not self.engine.alive or self._outstanding_ping != seq:
            return
        self._outstanding_ping = None
        self._register_fd_miss()

    def _register_fd_miss(self) -> None:
        self._fd_misses += 1
        if self._fd_misses * self.fd_ping_period < self.fd_grace:
            return
        fd = self.manager.maybe_get(self.fd_name)
        if fd is None or self._fd_restart_inflight:
            return
        self._fd_restart_inflight = True
        self._fd_misses = 0
        self.trace(ev.FD_RESTART, severity=Severity.WARNING)
        self.manager.restart([self.fd_name])


#: O(1) control-channel dispatch on the concrete message class.
#: ``parse_message`` returns exactly these types, so a dict hit replaces
#: the old isinstance ladder; unknown classes fall through silently, as
#: the ladder's final case did.
_CTL_DISPATCH = {
    PingRequest: RecoveryModule._on_ctl_ping,
    PingReply: RecoveryModule._on_ctl_ping_reply,
    FailureReport: RecoveryModule._on_ctl_failure_report,
    CommandMessage: RecoveryModule._on_ctl_command,
}
