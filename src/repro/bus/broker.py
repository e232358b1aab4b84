"""The message-bus broker behavior (runs inside the ``mbus`` process).

Protocol: clients connect to the broker's address and send a ``command``
message with verb ``attach`` naming themselves; thereafter the broker routes
every message to the channel registered for the message's ``to`` attribute.
Messages addressed to ``mbus`` itself are handled by the broker (it answers
liveness pings — that is how FD monitors the bus, §2.2).

All traffic is serialized XML on the wire, and the broker's dispatcher
touches every message — a broker whose dispatcher is wedged stops routing,
preserving fidelity to the paper's argument that application-level pings
indicate liveness "with higher confidence than a network-level ICMP ping".
Routing, however, needs only the start tag's ``to``/``from``/verb fields,
so the hot path makes one :func:`repro.xmlcmd.fastpath.decode_envelope`
call per message — the encoder's own envelope when the wire carries one, a
single-pass scan that never builds an element tree otherwise — and
forwards the original raw string untouched.  Any message the decoder cannot
*guarantee* to judge identically to the full parser (children, entities,
malformed input) falls back to full parsing, so observable behavior —
routing decisions, counters, trace records and their error text — is
identical: the differential tests make the decoder refuse every wire (the
full-parse reference, ``tests/conftest.py``) and assert the traces do not
move.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.components.base import Behavior
from repro.errors import ChannelClosedError, XmlError
from repro.obs import events as ev
from repro.types import Severity, SimTime
from repro.xmlcmd.commands import envelope_of, parse_message
from repro.xmlcmd.fastpath import decode_envelope, encode_ping_wire

if TYPE_CHECKING:  # pragma: no cover
    from repro.procmgr.process import SimProcess
    from repro.transport.channel import Endpoint
    from repro.transport.network import Network

#: The liveness protocol's kinds: routed at the base latency, undrawn, so a
#: ping round's hops are a pure function of its send instant (DESIGN.md §9).
_LIVENESS_KINDS = frozenset(("ping", "ping-reply"))


class BusBroker(Behavior):
    """Routes XML command messages between attached clients."""

    def __init__(self, process: "SimProcess", network: "Network", address: str = "mbus:7000") -> None:
        super().__init__(process)
        self.network = network
        self.address = address
        self._listener = None
        self._clients: Dict[str, "Endpoint"] = {}
        #: Every accepted endpoint, attached or not, mapped to the names it
        #: attached under (normally one; empty until the attach arrives) —
        #: the OS closes all of a dead process's sockets, including
        #: connections the application never finished registering, and keyed
        #: storage keeps close handling O(1) under kill storms.  Endpoints
        #: hash by identity, so this survives structural copying
        #: (snapshot/fork) where ``id()`` keys would dangle.
        self._endpoints: Dict["Endpoint", List[str]] = {}
        self.routed = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        self._clients = {}
        self._endpoints = {}
        self._listener = self.network.listen(self.address, self._on_accept)
        self.trace(ev.BUS_LISTENING, address=self.address)

    def on_kill(self) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for endpoint in list(self._endpoints):
            endpoint.close()
        self._endpoints = {}
        self._clients = {}

    # ------------------------------------------------------------------
    # connection bookkeeping
    # ------------------------------------------------------------------

    def _on_accept(self, endpoint: "Endpoint") -> None:
        # The client's identity arrives in its attach message; until then the
        # endpoint is anonymous and can only attach.
        self._endpoints[endpoint] = []
        # partial(), not a lambda: a closure would keep pointing at *this*
        # broker and endpoint after a snapshot restore; partials of bound
        # methods re-bind through the copy machinery.
        endpoint.on_message(partial(self._on_raw, endpoint))
        endpoint.on_close(partial(self._on_client_close, endpoint))

    def _on_client_close(self, endpoint: "Endpoint") -> None:
        names = self._endpoints.get(endpoint, ())
        self.kernel.supervision.poke(names[0] if len(names) == 1 else None)
        for name in self._endpoints.pop(endpoint, ()):
            if self._clients.get(name) is endpoint:
                del self._clients[name]
                self.trace(ev.BUS_DETACHED, client=name)

    def _attach(self, client_name: str, endpoint: "Endpoint") -> None:
        # Last attach wins: a restarted client re-attaches over a new channel
        # while the broker may not yet have seen the old channel's close.
        self.kernel.supervision.poke(client_name)
        old = self._clients.get(client_name)
        if old is not None and old is not endpoint:
            names = self._endpoints.get(old)
            if names is not None and client_name in names:
                names.remove(client_name)
        self._clients[client_name] = endpoint
        names = self._endpoints.setdefault(endpoint, [])
        if client_name not in names:
            names.append(client_name)
        self.trace(ev.BUS_ATTACHED, client=client_name)

    def attached(self, client: str) -> Optional["Endpoint"]:
        """The open endpoint (broker side) that ``client`` is attached
        through, if any."""
        endpoint = self._clients.get(client)
        return endpoint if endpoint is not None and endpoint.open else None

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _on_raw(self, endpoint: "Endpoint", raw: str) -> None:
        mode = self.process.degraded_mode
        if mode == "hang":
            return  # fail-slow broker: a hung mbus consumes nothing
        # The dispatcher touches every message, but a wire its encoder
        # vouched for (pings are >90% of availability-run traffic) costs a
        # slot read here, not a scan.
        envelope = decode_envelope(raw)
        if mode is not None:
            # A zombie mbus answers the liveness pings its decoder vouches
            # for but routes nothing, so every *other* component looks dead
            # through it.  Degraded runs are outside the differential trace
            # contract.
            if (
                envelope is not None
                and envelope.kind == "ping"
                and envelope.target == self.name
            ):
                self._reply_ping(envelope.sender, envelope.seq)
            return
        if envelope is None:
            # Refused: the full parser judges it, so malformed input
            # produces the parser's own error text in the trace.
            try:
                envelope = envelope_of(parse_message(raw))
            except XmlError as error:
                self.dropped += 1
                self.trace(
                    ev.BUS_BAD_MESSAGE, severity=Severity.WARNING, error=str(error)
                )
                return
        kind, sender, target, verb, seq = envelope
        if kind == "command" and verb == "attach":
            self._attach(sender, endpoint)
        elif target != self.name:
            self._forward(target, raw, kind)
        elif kind == "ping":
            self._reply_ping(sender, seq)
        else:
            # The broker only answers pings; anything else addressed to
            # ``mbus`` is misrouted control traffic and must be visible,
            # not silent.
            self.dropped += 1
            self.trace(
                ev.BUS_BAD_MESSAGE,
                severity=Severity.WARNING,
                error=f"unhandled {kind} message addressed to the broker",
            )

    def _reply_ping(self, requester: str, seq: int) -> None:
        # Template-serialized reply: only ``seq`` varies between pings from
        # the same requester (byte-identical to the generic serializer).
        self._forward(
            requester,
            encode_ping_wire("ping-reply", self.name, requester, seq),
            "ping-reply",
        )

    def _forward(self, target: Optional[str], raw: str, kind: str) -> None:
        """Send the original wire string, a ``kind`` message, to the endpoint
        attached as ``target``; a liveness ping or its reply goes at the base
        latency, undrawn (``Endpoint.send_base``)."""
        endpoint = self._clients.get(target) if target else None
        if endpoint is None or not endpoint.open:
            self._unroutable(target)
            return
        try:
            if kind in _LIVENESS_KINDS:
                endpoint.send_base(raw)
            else:
                endpoint.send(raw)
            self.routed += 1
        except ChannelClosedError:
            self.dropped += 1

    def _unroutable(self, target: Optional[str], at: Optional[SimTime] = None) -> None:
        """Drop a message for ``target``, attached nowhere, at ``at`` (a
        folded loop's replayed forward) or now."""
        self.dropped += 1
        trace = self.kernel.trace
        if trace.wants(ev.BUS_UNROUTABLE):
            trace.emit(self.name, ev.BUS_UNROUTABLE, time=at, target=target)
