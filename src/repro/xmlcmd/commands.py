"""Typed message schema on top of the XML command language.

Every message on the software bus (and on the dedicated FD↔REC channel) is
one of the dataclasses below, serialized as a ``<msg type="...">`` document.
``parse_message`` is the single entry point for decoding; it validates the
schema and raises :class:`~repro.errors.CommandSchemaError` on violations, so
components never dispatch on malformed input.

Pings and commands — everything FD's liveness loop and the user-traffic
plane put on the bus — are encoded and decoded at the wire level by
:mod:`repro.xmlcmd.fastpath` without building an element tree, and a wire
that came out of the encoder clean (a :class:`~repro.xmlcmd.fastpath.Wire`)
is decoded from the encoder's memo without reading its text.  The generic
pipeline (``to_element`` → ``serialize_xml``, ``parse_xml`` →
``message_from_element``) carries the other kinds, every non-canonical
spelling, and is the oracle the codec tests compare against
(:func:`parse_message_full`).  :class:`LazyMessage` lets a receiver defer
even the wire-level decode until a field is read.

Wire format examples::

    <msg type="ping" from="fd" to="ses" seq="17"/>
    <msg type="ping-reply" from="ses" to="fd" seq="17"/>
    <msg type="command" from="ses" to="str" verb="track">
      <param name="azimuth">143.2</param>
      <param name="elevation">67.9</param>
    </msg>
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.errors import CommandSchemaError
from repro.xmlcmd.document import Element
from repro.xmlcmd.fastpath import (
    Envelope,
    Wire,
    command_params,
    encode_command_wire,
    encode_ping_wire,
    split_command_wire,
    split_ping_wire,
)
from repro.xmlcmd.parser import parse_xml
from repro.xmlcmd.serializer import serialize_xml


@dataclass(frozen=True)
class PingRequest:
    """Application-level liveness ping (FD → component)."""

    sender: str
    target: str
    seq: int

    def to_element(self) -> Element:
        return Element(
            "msg",
            {"type": "ping", "from": self.sender, "to": self.target, "seq": str(self.seq)},
        )


@dataclass(frozen=True)
class PingReply:
    """Reply to a liveness ping (component → FD)."""

    sender: str
    target: str
    seq: int

    def to_element(self) -> Element:
        return Element(
            "msg",
            {
                "type": "ping-reply",
                "from": self.sender,
                "to": self.target,
                "seq": str(self.seq),
            },
        )


@dataclass(frozen=True)
class CommandMessage:
    """High-level command between station components."""

    sender: str
    target: str
    verb: str
    params: Dict[str, str] = field(default_factory=dict)

    def to_element(self) -> Element:
        children = [
            Element("param", {"name": name}, text=value)
            for name, value in self.params.items()
        ]
        return Element(
            "msg",
            {
                "type": "command",
                "from": self.sender,
                "to": self.target,
                "verb": self.verb,
            },
            children=children,
        )


@dataclass(frozen=True)
class TelemetryFrame:
    """A chunk of downlinked satellite data relayed across the station."""

    sender: str
    target: str
    satellite: str
    pass_id: str
    payload_bytes: int

    def to_element(self) -> Element:
        return Element(
            "msg",
            {
                "type": "telemetry",
                "from": self.sender,
                "to": self.target,
                "satellite": self.satellite,
                "pass": self.pass_id,
                "bytes": str(self.payload_bytes),
            },
        )


@dataclass(frozen=True)
class FailureReport:
    """FD → REC: one or more components appear to have failed."""

    sender: str
    target: str
    failed_components: tuple
    detected_at: float

    def to_element(self) -> Element:
        children = [
            Element("failed", {"component": name}) for name in self.failed_components
        ]
        return Element(
            "msg",
            {
                "type": "failure-report",
                "from": self.sender,
                "to": self.target,
                "detected-at": repr(self.detected_at),
            },
            children=children,
        )


@dataclass(frozen=True)
class RestartOrder:
    """REC's record of a restart decision (also used on the FD↔REC channel).

    REC executes restarts directly through the process manager; this message
    exists so FD can be told which components are *expected* to bounce, and
    so operators see decisions in the message log.
    """

    sender: str
    target: str
    cell_id: str
    components: tuple
    reason: str = ""

    def to_element(self) -> Element:
        children = [Element("component", {"name": name}) for name in self.components]
        return Element(
            "msg",
            {
                "type": "restart-order",
                "from": self.sender,
                "to": self.target,
                "cell": self.cell_id,
                "reason": self.reason,
            },
            children=children,
        )


Message = Union[
    PingRequest, PingReply, CommandMessage, TelemetryFrame, FailureReport, RestartOrder
]


def encode_message(message: Message) -> str:
    """Serialize any schema message to its wire string.

    Pings and commands — liveness traffic and every user request/reply —
    are written from cached start-tag templates
    (:func:`repro.xmlcmd.fastpath.encode_ping_wire` /
    :func:`~repro.xmlcmd.fastpath.encode_command_wire`); their output is
    byte-identical to the generic element serialization below.
    """
    cls = message.__class__
    if cls is CommandMessage:
        return encode_command_wire(
            message.sender, message.target, message.verb, message.params
        )
    if cls is PingRequest:
        return encode_ping_wire("ping", message.sender, message.target, message.seq)
    if cls is PingReply:
        return encode_ping_wire("ping-reply", message.sender, message.target, message.seq)
    return serialize_xml(message.to_element())


def _require(element: Element, attr: str) -> str:
    value = element.get(attr)
    if value is None:
        raise CommandSchemaError(
            f"<msg type={element.get('type')!r}> missing attribute {attr!r}"
        )
    return value


def _parse_int(element: Element, attr: str) -> int:
    raw = _require(element, attr)
    try:
        return int(raw)
    except ValueError:
        raise CommandSchemaError(f"attribute {attr!r} is not an integer: {raw!r}") from None


def parse_message(text: str) -> Message:
    """Decode a wire string into a typed message.

    Raises :class:`~repro.errors.XmlParseError` for malformed XML and
    :class:`~repro.errors.CommandSchemaError` for schema violations.

    A :class:`~repro.xmlcmd.fastpath.Wire` is rebuilt from its encoder's
    memo without reading the text.  Canonical pings and commands in plain
    text are decoded at the wire level
    (:func:`repro.xmlcmd.fastpath.split_ping_wire` /
    :func:`~repro.xmlcmd.fastpath.split_command_wire`); everything else —
    including schema-valid messages in a non-canonical spelling — goes
    through :func:`parse_message_full` with identical results (equality is
    enforced by the shared round-trip property tests).
    """
    if text.__class__ is Wire:
        kind, sender, target, verb, seq = text.envelope
        if kind == "command":
            # A copy: what the receiver does to its params must not reach
            # the next delivery of the same wire (a duplicate, a replay).
            return CommandMessage(sender, target, verb, text.params.copy())
        if kind == "ping":
            return PingRequest(sender, target, seq)
        return PingReply(sender, target, seq)
    ping = split_ping_wire(text)
    if ping is not None:
        kind, sender, target, seq = ping
        if kind == "ping":
            return PingRequest(sender, target, seq)
        return PingReply(sender, target, seq)
    command = split_command_wire(text)
    if command is not None:
        return CommandMessage(*command)
    return parse_message_full(text)


def parse_message_full(text: str) -> Message:
    """Decode a wire string via the full parse pipeline (no fast paths)."""
    element = parse_xml(text)
    return message_from_element(element)


def message_from_element(element: Element) -> Message:
    """Decode an already-parsed element into a typed message."""
    if element.tag != "msg":
        raise CommandSchemaError(f"document element must be <msg>, got <{element.tag}>")
    kind = _require(element, "type")
    sender = _require(element, "from")
    target = _require(element, "to")

    if kind == "ping":
        return PingRequest(sender, target, _parse_int(element, "seq"))
    if kind == "ping-reply":
        return PingReply(sender, target, _parse_int(element, "seq"))
    if kind == "command":
        params: Dict[str, str] = {}
        for param in element.find_all("param"):
            name = param.get("name")
            if name is None:
                raise CommandSchemaError("<param> missing name attribute")
            params[name] = param.text
        return CommandMessage(sender, target, _require(element, "verb"), params)
    if kind == "telemetry":
        return TelemetryFrame(
            sender,
            target,
            satellite=_require(element, "satellite"),
            pass_id=_require(element, "pass"),
            payload_bytes=_parse_int(element, "bytes"),
        )
    if kind == "failure-report":
        failed = tuple(
            child.require("component") for child in element.find_all("failed")
        )
        if not failed:
            raise CommandSchemaError("failure-report must name at least one component")
        try:
            detected_at = float(_require(element, "detected-at"))
        except ValueError:
            raise CommandSchemaError("detected-at is not a float") from None
        return FailureReport(sender, target, failed, detected_at)
    if kind == "restart-order":
        components = tuple(
            child.require("name") for child in element.find_all("component")
        )
        return RestartOrder(
            sender,
            target,
            cell_id=_require(element, "cell"),
            components=components,
            reason=element.get("reason", ""),
        )
    raise CommandSchemaError(f"unknown message type {kind!r}")


#: Wire ``type`` attribute of each schema class.
_WIRE_KINDS = {
    PingRequest: "ping",
    PingReply: "ping-reply",
    CommandMessage: "command",
    TelemetryFrame: "telemetry",
    FailureReport: "failure-report",
    RestartOrder: "restart-order",
}


def envelope_of(message: Message) -> Envelope:
    """The routing fields of a parsed message.

    Exactly what :func:`~repro.xmlcmd.fastpath.scan_envelope` returns for a
    wire it vouches for, so a receiver dispatches on one tuple whichever
    decoder — the scan or the full parser — judged the wire.
    """
    return Envelope(
        _WIRE_KINDS[message.__class__],
        message.sender,
        message.target,
        getattr(message, "verb", None),
        getattr(message, "seq", None),
    )


_LAZY_FIELDS = frozenset({"raw", "_envelope", "_msg"})


class LazyMessage:
    """A received bus message that defers decoding until first use.

    Holds the wire string and, when the receiver's decoder produced one,
    its :class:`~repro.xmlcmd.fastpath.Envelope`.  Any attribute access
    delegates to the decoded message, produced exactly once and cached: a
    command vouched from plain text is assembled from the envelope plus one
    ``findall`` for its params, anything else goes through
    :func:`parse_message` (which reads a ``Wire``'s memo).  The
    ``__class__`` proxy makes ``isinstance(lazy, PingReply)`` (and dataclass
    equality against a parsed message) behave as if the document had been
    parsed eagerly — so consumers cannot tell the difference, except that a
    consumer who looks at nothing pays for nothing.

    Callers must only wrap strings the full parser is known to accept
    (after a :func:`~repro.xmlcmd.fastpath.decode_envelope` hit), and only
    pass the envelope decoded from that same string; wrapping garbage would
    surface the parse error at first *access* instead of at delivery.

    Copies and pickles as ``(raw, envelope)``: the copy decodes again on its
    own first use.
    """

    def __init__(self, raw: str, envelope: Optional[Envelope] = None) -> None:
        self.raw = raw
        self._envelope = envelope
        self._msg: Optional[Message] = None

    def __reduce__(self):
        return LazyMessage, (self.raw, self._envelope)

    def _materialize(self) -> Message:
        msg = self._msg
        if msg is None:
            raw = self.raw
            envelope = self._envelope
            if (
                envelope is not None
                and envelope.kind == "command"
                and raw.__class__ is not Wire
            ):
                msg = CommandMessage(
                    envelope.sender, envelope.target, envelope.verb, command_params(raw)
                )
            else:
                msg = parse_message(raw)
            self._msg = msg
            # Adopt the decoded fields: every later ``lazy.verb`` is a plain
            # attribute load, not a ``__getattr__`` round trip.
            self.__dict__.update(msg.__dict__)
        return msg

    @property  # type: ignore[misc]
    def __class__(self):
        return self._materialize().__class__

    def __getattr__(self, name: str):
        # Only reached for names the instance lacks.  Its own three fields
        # are missing only on a half-built instance (``__new__`` without
        # ``__init__``, as copy and pickle make), and no dunder protocol is
        # the decoded message's to answer: refusing both keeps a probe like
        # ``hasattr(copy, "__setstate__")`` from recursing through
        # ``_materialize``.
        if name in _LAZY_FIELDS or (name.startswith("__") and name.endswith("__")):
            raise AttributeError(name)
        return getattr(self._materialize(), name)

    def __eq__(self, other: object) -> bool:
        return self._materialize() == other

    def __ne__(self, other: object) -> bool:
        return self._materialize() != other

    def __hash__(self) -> int:
        return hash(self._materialize())

    def __repr__(self) -> str:
        return repr(self._materialize())
