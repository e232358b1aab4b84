"""The XML command language.

Mercury is "controlled both remotely and locally via a high-level, XML-based
command language" and liveness pings "are encoded in and replied to in a
high-level XML command language, so a successful response indicates the
component's liveness with higher confidence than a network-level ICMP ping"
(paper §2.1–2.2).

This package provides:

* :mod:`repro.xmlcmd.document` — a tiny immutable element-tree model;
* :mod:`repro.xmlcmd.parser` — a from-scratch recursive-descent parser for
  the XML subset the command language uses (elements, attributes, text,
  comments, declarations; no namespaces/DTDs/CDATA);
* :mod:`repro.xmlcmd.serializer` — canonical serialization with escaping;
* :mod:`repro.xmlcmd.commands` — the typed message schema (ping, ping reply,
  commands, telemetry, failure reports) used on the bus;
* :mod:`repro.xmlcmd.fastpath` — the wire-level codec (templated ping and
  command encode that vouches for its own clean output, failure-report and
  restart-order encode vouched with the message itself, one envelope
  decode per hop for routing and delivery, and the envelope scan that
  routes plain text), bit-compatible with the full parse/serialize
  pipeline, which remains the fallback and the test oracle (DESIGN.md §8).

The point of carrying real (parsed, validated) XML through the simulated
station — rather than passing Python objects — is fidelity to the paper's
liveness argument: a ping reply proves the component can *parse, dispatch and
serialize* application-level messages, not merely that its process exists.
A component whose process is alive but whose dispatcher is wedged fails the
XML ping, and FD correctly declares it failed.  What every hop carries is
still that XML text; a wire this process's own encoder vouched for also
carries the five routing fields it was written from (and a failure report or
restart order the message itself), so a hop re-reads only text it has reason
to doubt (DESIGN.md §8).
"""

from repro.xmlcmd.commands import (
    CommandMessage,
    FailureReport,
    Message,
    PingReply,
    PingRequest,
    RestartOrder,
    TelemetryFrame,
    parse_message,
    parse_message_full,
)
from repro.xmlcmd.document import Element
from repro.xmlcmd.fastpath import Envelope, scan_envelope
from repro.xmlcmd.parser import parse_xml
from repro.xmlcmd.serializer import serialize_xml

__all__ = [
    "CommandMessage",
    "Element",
    "Envelope",
    "FailureReport",
    "Message",
    "PingReply",
    "PingRequest",
    "RestartOrder",
    "TelemetryFrame",
    "parse_message",
    "parse_message_full",
    "parse_xml",
    "scan_envelope",
    "serialize_xml",
]
