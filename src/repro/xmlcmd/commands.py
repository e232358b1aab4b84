"""Typed message schema on top of the XML command language.

Every message on the software bus (and on the dedicated FD↔REC channel) is
one of the ``NamedTuple`` classes below, serialized as a ``<msg type="...">``
document.  ``parse_message`` is the single entry point for decoding; it
validates the schema and raises :class:`~repro.errors.CommandSchemaError` on
violations, so components never dispatch on malformed input.
:func:`received_message` is the receive sites' door to it.

A message is immutable and compares *class-strictly*: a ``PingRequest``
never equals a ``PingReply``, an ``Envelope`` or a bare tuple with the same
fields, whichever operand is on the left.  The hash is the tuple's, which
equal messages share.

Pings and commands — everything FD's liveness loop and the user-traffic
plane put on the bus — are encoded and decoded at the wire level by
:mod:`repro.xmlcmd.fastpath` without building an element tree, and a wire
that came out of the encoder clean (a :class:`~repro.xmlcmd.fastpath.Wire`)
is decoded from the encoder's memo without reading its text.  The generic
pipeline (``to_element`` → ``serialize_xml``, ``parse_xml`` →
``message_from_element``) carries the other kinds, every non-canonical
spelling, and is the oracle the codec tests compare against
(:func:`parse_message_full`).

Wire format examples::

    <msg type="ping" from="fd" to="ses" seq="17"/>
    <msg type="ping-reply" from="ses" to="fd" seq="17"/>
    <msg type="command" from="ses" to="str" verb="track">
      <param name="azimuth">143.2</param>
      <param name="elevation">67.9</param>
    </msg>
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, NamedTuple, Optional, Union, get_args

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


class _NoParams(Mapping):
    """The read-only empty ``params`` every default-params command shares.

    Copies and pickles as itself, so no command can pass an edit on to the
    next one built without params.
    """

    __slots__ = ()

    def __getitem__(self, name: str) -> str:
        raise KeyError(name)

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "{}"

    def __reduce__(self) -> str:
        return "_NO_PARAMS"


_NO_PARAMS = _NoParams()

#: ``_new_message(cls, fields)``: the generated ``__new__`` minus its
#: argument shuffle — the decoders build one message per received wire.
_new_message = tuple.__new__


class PingRequest(NamedTuple):
    """Application-level liveness ping (FD → component)."""

    sender: str
    target: str
    seq: int

    def to_element(self) -> Element:
        return Element(
            "msg",
            {"type": "ping", "from": self.sender, "to": self.target, "seq": str(self.seq)},
        )


class PingReply(NamedTuple):
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


class CommandMessage(NamedTuple):
    """High-level command between station components."""

    sender: str
    target: str
    verb: str
    params: Mapping[str, str] = _NO_PARAMS

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


class TelemetryFrame(NamedTuple):
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


class FailureReport(NamedTuple):
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


class RestartOrder(NamedTuple):
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


def _same_message(self, other: object) -> bool:
    return other.__class__ is self.__class__ and tuple.__eq__(self, other)


def _other_message(self, other: object) -> bool:
    return other.__class__ is not self.__class__ or tuple.__ne__(self, other)


# Class-strict comparison.  A tuple subclass overriding ``__eq__`` is asked
# first even as the right operand of a bare tuple, so both orders agree;
# the inherited tuple hash stays consistent, since this only splits classes.
for _cls in get_args(Message):
    _cls.__eq__ = _same_message
    _cls.__ne__ = _other_message


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
            return _new_message(
                CommandMessage, (sender, target, verb, text.params.copy())
            )
        return _new_message(
            PingRequest if kind == "ping" else PingReply, (sender, target, seq)
        )
    ping = split_ping_wire(text)
    if ping is not None:
        kind, sender, target, seq = ping
        return _new_message(
            PingRequest if kind == "ping" else PingReply, (sender, target, seq)
        )
    command = split_command_wire(text)
    if command is not None:
        return _new_message(CommandMessage, command)
    return parse_message_full(text)


def received_message(raw: str, envelope: Optional[Envelope]) -> Message:
    """The message a receive site delivers, given what
    :func:`~repro.xmlcmd.fastpath.decode_envelope` made of ``raw``.

    A command the scan vouched for in plain text is built from that
    envelope plus one ``findall`` for its params; everything else — a
    ``Wire``, which answers from its memo, or a wire the decoder refused —
    goes through :func:`parse_message`, whose errors reach the caller.
    """
    if envelope is None or envelope.kind != "command" or raw.__class__ is Wire:
        return parse_message(raw)
    return _new_message(
        CommandMessage,
        (envelope.sender, envelope.target, envelope.verb, command_params(raw)),
    )


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
