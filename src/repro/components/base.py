"""Behavior base classes.

:class:`Behavior` is the minimal lifecycle contract a simulated process
calls into; :class:`BusAttachedBehavior` adds the standard Mercury component
equipment: a bus connection with an automatic reconnect loop, XML
parse/dispatch, automatic ping replies, and a ``send`` helper.

Statelessness discipline: behaviors keep only *soft* state — connections and
caches rebuilt on restart — matching the paper's observation that Mercury
components "use only the state explicitly encapsulated by received messages
from mbus" and that hard state is read-only during a pass (§2.1).  The
framework enforces the restart half of this: every behavior's ``on_start``
begins from a fresh connection state because ``on_kill`` dropped everything.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from repro.errors import ChannelClosedError, XmlError
from repro.faults.store_faults import StoreError
from repro.obs import events as ev
from repro.types import Severity, SimTime
from repro.xmlcmd.commands import (
    CommandMessage,
    Message,
    PingReply,
    encode_message,
    envelope_of,
    parse_message,
)
from repro.xmlcmd.fastpath import Envelope, decode_envelope, encode_ping_wire

if TYPE_CHECKING:  # pragma: no cover
    from repro.procmgr.process import SimProcess
    from repro.transport.channel import Endpoint
    from repro.transport.network import Network


#: End-to-end probe verbs.  Unlike liveness pings (answered by a dedicated
#: thread even in a zombie), probes round-trip through the component's
#: *worker* path — see :class:`repro.components.health.EndToEndProber`.
E2E_PROBE_VERB = "e2e-probe"
E2E_PROBE_REPLY_VERB = "e2e-probe-reply"

#: The reply verb of every user-plane service endpoint (ses, str, fedr,
#: fedrcom); :class:`repro.workload.plane.WorkloadPlane` matches on it.
SVC_REPLY_VERB = "svc-reply"


class Behavior:
    """Base class for process-hosted component logic."""

    def __init__(self, process: "SimProcess") -> None:
        self.process = process
        self.kernel = process.kernel
        #: The hosting process's (and hence the component's) name; a
        #: process never changes its own.
        self.name = process.name

    def trace(self, kind: str, severity: Severity = Severity.INFO, **data: Any) -> None:
        """Emit a trace record attributed to this component."""
        trace = self.kernel.trace
        if trace.wants(kind):
            trace.emit(self.name, kind, severity, **data)

    # -- lifecycle hooks -------------------------------------------------

    def on_start(self) -> None:
        """Called when the hosting process transitions to RUNNING."""

    def on_kill(self) -> None:
        """Called when the hosting process dies (OS-level teardown only)."""


class BusAttachedBehavior(Behavior):
    """A behavior connected to the message bus with automatic reconnection."""

    def __init__(
        self,
        process: "SimProcess",
        network: "Network",
        bus_address: str = "mbus:7000",
        reconnect_interval: SimTime = 0.25,
        session_store: Any = None,
    ) -> None:
        super().__init__(process)
        self.network = network
        self.bus_address = bus_address
        self.reconnect_interval = reconnect_interval
        self._endpoint: Optional["Endpoint"] = None
        self._alive = False
        self._reconnect_pending = False
        #: Crash-only session store (see :mod:`repro.mercury.session_store`),
        #: or None on classic stations.  When set, inbound work messages are
        #: logged so a checkpoint-replay restart can replay the tail.
        self._session_store = session_store
        self._replay_pending = False
        self._replaying = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        self._alive = True
        store = self._session_store
        self._replay_pending = (
            store is not None
            and self.process.last_hint == "replay"
            and (store.has_checkpoint(self.name) or store.has_log(self.name))
        )
        self._try_connect()

    def on_kill(self) -> None:
        self._alive = False
        self.network.hang_up(self.name)
        if self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------

    @property
    def connected(self) -> bool:
        """Whether a live bus connection exists right now."""
        return self._endpoint is not None and self._endpoint.open

    @property
    def endpoint(self) -> Optional["Endpoint"]:
        """This side of the bus connection, if one is held."""
        return self._endpoint

    def _try_connect(self) -> None:
        self._reconnect_pending = False
        if not self._alive or self.connected:
            return
        endpoint = self.network.dial(self.name, self.bus_address)
        if endpoint is None:
            self._schedule_reconnect()
            return
        self._endpoint = endpoint
        endpoint.on_message(self._on_raw)
        endpoint.on_close(self._on_bus_close)
        attach = CommandMessage(sender=self.name, target="mbus", verb="attach")
        endpoint.send(encode_message(attach))
        self.trace(ev.BUS_CONNECTED)
        self.on_bus_connected()
        if self._replay_pending:
            self._replay_window()

    def _on_bus_close(self) -> None:
        self._endpoint = None
        if self._alive:
            self.trace(ev.BUS_CONNECTION_LOST, severity=Severity.WARNING)
            self._schedule_reconnect()

    def _schedule_reconnect(self) -> None:
        if self._reconnect_pending or not self._alive:
            return
        self._reconnect_pending = True
        self.network.redial(
            self.name, self.bus_address, self.reconnect_interval, self._try_connect
        )

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------

    def send(self, message: Message) -> bool:
        """Serialize and send; returns False when not connected.

        Fail-slow gating: a hung process emits nothing; a zombie's liveness
        thread still answers pings, but every other outbound message is
        swallowed by the wedged worker.
        """
        mode = self.process.degraded_mode
        if mode is not None:
            if mode == "hang":
                return False
            if mode == "zombie" and not isinstance(message, PingReply):
                return False
        # Attribute reads, not ``connected``: every user request's reply
        # leaves through here.
        endpoint = self._endpoint
        if endpoint is None or not endpoint.open:
            return False
        try:
            endpoint.send(encode_message(message))
        except ChannelClosedError:
            return False
        return True

    def _replay_window(self) -> None:
        """Feed the logged message tail back through the receive path.

        Runs once, right after the first (re)attach of a ``replay``-hinted
        start: the checkpoint restored the coarse state, the log replays
        what arrived since.  Replayed messages are not re-logged.
        """
        self._replay_pending = False
        store = self._session_store
        assert store is not None
        try:
            entries = store.replay_log(self.name)
        except StoreError:
            entries = []  # store down: the replay window is empty (honest)
        self.trace(ev.REPLAY_WINDOW, component=self.name, messages=len(entries))
        self._replaying = True
        try:
            for raw in entries:
                self._on_raw(raw)
        finally:
            self._replaying = False

    def _on_raw(self, raw: str) -> None:
        if not self._alive:
            return
        if self.process.degraded_mode == "hang":
            return  # event loop wedged: nothing is consumed, nothing answered
        self._deliver(raw, decode_envelope(raw))

    def _deliver(self, raw: str, env: Optional[Envelope]) -> None:
        """Act on one inbound wire, given what the decoder made of it
        (``None``: refused, so the full parser judges it here)."""
        if env is not None and env.kind == "ping":
            # Liveness pings dominate bus traffic; answer straight from the
            # envelope — no request or reply message is ever built.
            self._answer_ping(env.sender, env.seq)
            return
        if self._session_store is not None and not self._replaying:
            # Bus-client tap: log real work for checkpoint-replay recovery.
            # Pings the decoder vouches for never reach the log — they
            # carry no state.  A store outage leaves a gap in the replay
            # window (counted by the store's op-timeout ladder); real work
            # is never blocked on it.
            try:
                self._session_store.log_message(self.name, raw)
            except StoreError:
                pass
        try:
            # A vouched wire cannot raise here: the full parser is
            # guaranteed to accept it.
            message = parse_message(raw)
        except XmlError as error:
            self.trace(ev.BAD_MESSAGE, severity=Severity.WARNING, error=str(error))
            return
        if env is None:
            env = envelope_of(message)
            if env.kind == "ping":
                # A schema-valid ping only the parser could judge (entities,
                # children); vouched ones were answered above.
                self._answer_ping(env.sender, env.seq)
                return
        if self.process.degraded_mode == "zombie":
            return  # real work silently dropped — only e2e probes see this
        if env.kind == "command" and env.verb == E2E_PROBE_VERB:
            # End-to-end probes exercise the worker path, not the liveness
            # thread, so they sit *behind* the zombie gate: a zombie answers
            # pings above but never reaches this reply.
            self._reply_probe(message)
            return
        self.on_message(message)

    def _answer_ping(self, requester: str, seq: int) -> None:
        """Reply to a liveness ping at the base latency, undrawn: the wire
        ``send(PingReply(...))`` would encode, and its zombie gate (a
        zombie's liveness thread still answers pings)."""
        endpoint = self._endpoint
        if endpoint is not None and endpoint.open:
            try:
                endpoint.send_base(encode_ping_wire("ping-reply", self.name, requester, seq))
            except ChannelClosedError:
                pass

    def _reply_probe(self, message: Message) -> None:
        """Answer an end-to-end probe through the worker path (zombie-gated
        by the caller; see :class:`repro.components.health.EndToEndProber`)."""
        self.send(
            CommandMessage(
                sender=self.name,
                target=message.sender,
                verb=E2E_PROBE_REPLY_VERB,
                params={"seq": message.params.get("seq", "0")},
            )
        )

    def _reply_service(
        self, message: CommandMessage, svc: str, field: str, count: int
    ) -> None:
        """Answer a user-plane service request (``repro.workload.plane``):
        the request id, the service name and one ledger count, in that
        order.  The caller bumps its counter first."""
        self.send(
            CommandMessage(
                self.name,
                message.sender,
                SVC_REPLY_VERB,
                {"req": message.params.get("req", ""), "svc": svc, field: str(count)},
            )
        )

    # -- hooks for subclasses --------------------------------------------

    def on_bus_connected(self) -> None:
        """Called after each successful (re)attachment to the bus."""

    def on_message(self, message: Message) -> None:
        """Called for every non-ping message addressed to this component."""
