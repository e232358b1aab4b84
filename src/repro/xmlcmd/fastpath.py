"""Wire-level codec for the XML command language: strings in, tuples out.

Nothing here builds an :class:`~repro.xmlcmd.document.Element` or knows a
message class; the typed layer (:mod:`repro.xmlcmd.commands`) dispatches to
these functions first and keeps the element pipeline as the fallback.  Every
function either produces exactly what the full pipeline
(:func:`~repro.xmlcmd.parser.parse_xml` +
:func:`~repro.xmlcmd.serializer.serialize_xml`) would, or returns ``None``
so the caller takes the full pipeline and gets identical behavior —
including identical error text in traces.

Encode (byte-identical to ``serialize_xml(message.to_element())``):

* :func:`encode_ping_wire` — cached ``(kind, sender, target)`` prefix, only
  ``seq`` substituted.  Pings are >90% of bus traffic in availability runs
  (FD's 1 s liveness loop, §2.2).
* :func:`encode_command_wire` — cached ``(sender, target, verb)`` start
  tag, ``<param>`` children joined per item.  Every user request and reply
  is a command.

Both return a :class:`Wire` — the same text, carrying the
:class:`Envelope` (and params) the decoders below would recover from it —
whenever no field needed escaping, which is exactly when those decoders
would vouch for the text anyway.  :func:`decode_envelope` is the receive
sites' one call per message: it reads that memo, and scans text only when
handed a plain string.

Decode (canonical spelling only — the serializer's own output):

* :func:`split_ping_wire` — a memoized prefix cache maps the constant
  ``<msg type="ping..." from="..." to="..." seq="`` head straight to its
  triple: one ``find``, one dict hit, one ``int()``.
* :func:`split_command_wire` — one anchored match of the whole canonical
  command plus one ``findall`` for the params.  The same regex is the only
  command recogniser: :func:`scan_envelope` tries it first, so a command in
  any other spelling (reordered attributes, single quotes, whitespace,
  entities, foreign children) is refused by both and judged by the parser.
* :func:`scan_envelope` — the routing fields (``type``/``from``/``to``/
  ``verb``/``seq``) of a canonical command or of a childless ping /
  telemetry start tag in any spelling, for broker routing and receiver-side
  vouching.  ``failure-report`` / ``restart-order`` always fall back: their
  validity depends on children.

The differential tests in ``tests/bus/test_fastpath_differential.py`` and
``tests/xmlcmd/test_fastpath.py`` enforce the either-identical-or-refuse
guarantee; DESIGN.md §8 has the per-hop table of who calls what.
"""

from __future__ import annotations

import re
from sys import intern as _intern
from typing import Dict, Mapping, NamedTuple, Optional, Tuple

from repro.xmlcmd.serializer import escape_attr, escape_text


#: Childless kinds whose schema validity is decidable from the start tag in
#: any spelling.  Commands have their own whole-document recogniser below.
_ATTR_ONLY_KINDS = frozenset({"ping", "ping-reply", "telemetry"})

# XML whitespace only (not Python's \s, which also matches \f\v and
# Unicode spaces the parser rejects).
_WS = " \t\r\n"
_MSG_OPEN_RE = re.compile(r"<msg(?=[ \t\r\n/>])")
# One attribute with a quoted value.  Values containing ``&`` (entities),
# ``<`` (ill-formed) or the closing quote cannot match, which forces the
# full-parse fallback for exactly the inputs where decoding matters.
_ATTR_RE = re.compile(
    r"[ \t\r\n]+([A-Za-z_][A-Za-z0-9._-]*)=(?:\"([^\"&<]*)\"|'([^'&<]*)')"
)

# The whole canonical command, exactly as the compact serializer writes it:
# the start tag's four attributes in order with double quotes, then either
# ``/>`` or zero or more ``<param>`` children and the closing tag.  No
# inter-element whitespace, no entities (escaped text contains ``&`` and is
# excluded by the character classes), nothing after the document.
_COMMAND_RE = re.compile(
    r'<msg type="command" from="([^"&<]*)" to="([^"&<]*)" verb="([^"&<]*)"'
    r'(?:/>|>(?:<param name="[^"&<>]*"(?:/>|>[^&<>]*</param>))*</msg>)\Z'
)
# One canonical ``<param>``, with its name and (possibly absent) text
# captured.  Run over a wire ``_COMMAND_RE`` accepted it finds exactly the
# children: the start tag cannot contain ``<``.
_PARAM_RE = re.compile(r'<param name="([^"&<>]*)"(?:/>|>([^&<>]*)</param>)')


class Envelope(NamedTuple):
    """Routing fields of a bus message, extracted without a parse tree."""

    kind: str
    sender: str
    target: str
    verb: Optional[str]
    seq: Optional[int]


#: ``_new_envelope(Envelope, fields)``: the generated ``__new__`` minus its
#: argument shuffle — one envelope is built per vouched ping.
_new_envelope = tuple.__new__


def scan_envelope(raw: str) -> Optional[Envelope]:
    """Extract routing fields from a canonical command or a childless
    ``<msg .../>`` start tag.

    Returns ``None`` whenever full parsing could behave differently —
    the caller must then run the full parser (and surface its errors).
    """
    m = _COMMAND_RE.match(raw)
    if m is not None:
        sender, target, verb = m.groups()
        return Envelope("command", _intern(sender), _intern(target), verb, None)
    m = _MSG_OPEN_RE.match(raw)
    if m is None:
        return None
    pos = m.end()
    attrs: Dict[str, str] = {}
    while True:
        am = _ATTR_RE.match(raw, pos)
        if am is None:
            break
        name = am.group(1)
        if name in attrs:
            return None  # duplicate attribute: the full parser rejects it
        value = am.group(2)
        if value is None:
            value = am.group(3)
        attrs[name] = value
        pos = am.end()
    while pos < len(raw) and raw[pos] in _WS:
        pos += 1
    # Only a complete, self-closing document is schema-checkable from the
    # start tag alone; children — or trailing junk, which the full parser
    # rejects — fall back.
    if not raw.startswith("/>", pos) or pos + 2 != len(raw):
        return None
    kind = attrs.get("type")
    sender = attrs.get("from")
    target = attrs.get("to")
    if kind is None or sender is None or target is None or kind not in _ATTR_ONLY_KINDS:
        return None
    if kind == "ping" or kind == "ping-reply":
        seq_raw = attrs.get("seq")
        if seq_raw is None:
            return None
        try:
            seq = int(seq_raw)
        except ValueError:
            return None
        return Envelope(kind, _intern(sender), _intern(target), None, seq)
    # telemetry: the remaining schema requirements are attribute-only.
    if "satellite" not in attrs or "pass" not in attrs:
        return None
    try:
        int(attrs["bytes"])
    except (KeyError, ValueError):
        return None
    return Envelope(kind, _intern(sender), _intern(target), None, None)


# ----------------------------------------------------------------------
# vouched wires
# ----------------------------------------------------------------------


class Wire(str):
    """Wire text that remembers what its encoder wrote.

    ``envelope`` is what :func:`scan_envelope` returns for this text and
    ``params`` what :func:`command_params` returns (``None`` for a ping);
    the encoders build one only for text those scanners accept, so reading
    the memo and scanning the text are interchangeable.  It is a ``str`` in
    every other respect — compared, hashed, sliced, logged and serialized
    as its text — and as immutable: nobody writes the slots after
    :func:`vouch`, and a receiver is handed a copy of ``params``.
    """

    __slots__ = ("envelope", "params")

    def __reduce__(self):
        return vouch, (str(self), self.envelope, self.params)

    def __deepcopy__(self, memo: dict) -> "Wire":
        return self


def vouch(
    text: str, envelope: "Envelope", params: Optional[Dict[str, str]] = None
) -> Wire:
    """The one place a :class:`Wire` is built."""
    wire = Wire(text)
    wire.envelope = envelope
    wire.params = params
    return wire


def decode_envelope(raw: str) -> Optional[Envelope]:
    """Routing fields of one received message, or ``None`` when only the
    full parser may judge it.

    A :class:`Wire` answers from its memo; plain text is scanned — the
    memoized ping split first, then :func:`scan_envelope`.
    """
    if raw.__class__ is Wire:
        return raw.envelope
    ping = split_ping_wire(raw)
    if ping is not None:
        return _new_envelope(Envelope, (ping[0], ping[1], ping[2], None, ping[3]))
    return scan_envelope(raw)


# ----------------------------------------------------------------------
# templated encode
# ----------------------------------------------------------------------

#: Bound on every cache below.  Station component names are a small fixed set;
#: the bound only guards pathological workloads (e.g. fuzzing) from
#: unbounded growth — on overflow the cache is simply rebuilt.
_CACHE_LIMIT = 4096

_PING_KINDS = ("ping", "ping-reply")

#: ``(kind, sender, target)`` → (start tag up to ``seq="``, whether it is
#: clean: a ping kind whose names came through ``escape_attr`` unchanged).
_encode_prefixes: Dict[Tuple[str, str, str], Tuple[str, bool]] = {}


def encode_ping_wire(kind: str, sender: str, target: str, seq: int) -> str:
    """Serialize a ping/ping-reply, byte-identical to the canonical form.

    Vouched (a :class:`Wire`) when the start tag is clean and ``seq`` is an
    ``int`` proper: a ``bool`` or ``str`` seq formats into text
    :func:`split_ping_wire` would refuse or read back as another type.
    """
    key = (kind, sender, target)
    hit = _encode_prefixes.get(key)
    if hit is None:
        if len(_encode_prefixes) >= _CACHE_LIMIT:
            _encode_prefixes.clear()
        sender_attr = escape_attr(sender)
        target_attr = escape_attr(target)
        hit = _encode_prefixes[key] = (
            f'<msg type="{kind}" from="{sender_attr}" to="{target_attr}" seq="',
            kind in _PING_KINDS and sender_attr == sender and target_attr == target,
        )
    text = f'{hit[0]}{seq}"/>'
    if hit[1] and seq.__class__ is int:
        return vouch(text, _new_envelope(Envelope, (kind, sender, target, None, seq)))
    return text


#: ``(sender, target, verb)`` → (start tag without its close, the command's
#: envelope when all three came through ``escape_attr`` unchanged else None).
_command_prefixes: Dict[Tuple[str, str, str], Tuple[str, Optional[Envelope]]] = {}


def encode_command_wire(
    sender: str, target: str, verb: str, params: Mapping[str, str]
) -> str:
    """Serialize a command, byte-identical to the canonical form.

    Vouched (a :class:`Wire`) when neither the start tag nor any param
    needed escaping; the memoized params are the decoder's — values
    stripped of XML whitespace — in a dict of the wire's own.
    """
    key = (sender, target, verb)
    hit = _command_prefixes.get(key)
    if hit is None:
        if len(_command_prefixes) >= _CACHE_LIMIT:
            _command_prefixes.clear()
        attrs = (escape_attr(sender), escape_attr(target), escape_attr(verb))
        hit = _command_prefixes[key] = (
            '<msg type="command" from="%s" to="%s" verb="%s"' % attrs,
            Envelope("command", sender, target, verb, None) if attrs == key else None,
        )
    prefix, envelope = hit
    if not params:
        text = prefix + "/>"
        return text if envelope is None else vouch(text, envelope, {})
    parts = [prefix, ">"]
    clean = envelope is not None
    decoded: Dict[str, str] = {}
    for name, value in params.items():
        text = escape_text(value)
        attr = escape_attr(name)
        if clean:
            if text == value and attr == name:
                decoded[name] = value.strip(_WS)
            else:
                clean = False
        if text:
            parts.append(f'<param name="{attr}">{text}</param>')
        else:
            parts.append(f'<param name="{attr}"/>')
    parts.append("</msg>")
    text = "".join(parts)
    return vouch(text, envelope, decoded) if clean else text


# ----------------------------------------------------------------------
# memoized ping decode
# ----------------------------------------------------------------------

# Canonical head of a serializer-produced ping, up to and including the
# ``seq="`` opener.  The value classes exclude quote/&/< so a matching
# prefix needs no entity decoding and cannot hide a fake ``seq=``.
_PING_PREFIX_RE = re.compile(
    r'<msg type="(ping|ping-reply)" from="([^"&<]*)" to="([^"&<]*)" seq="\Z'
)

_decode_prefixes: Dict[str, Tuple[str, str, str]] = {}


def split_ping_wire(raw: str) -> Optional[Tuple[str, str, str, int]]:
    """Decode a canonical ping wire string to ``(kind, sender, target, seq)``.

    Returns ``None`` for anything that is not *exactly* a canonical ping —
    including schema-valid pings written with different spacing, quoting or
    attribute order, which the full parser handles identically (just slower).
    """
    if not raw.endswith('"/>'):
        return None
    cut = raw.find(' seq="')
    if cut < 0:
        return None
    prefix = raw[: cut + 6]
    hit = _decode_prefixes.get(prefix)
    if hit is None:
        m = _PING_PREFIX_RE.match(prefix)
        if m is None:
            return None
        hit = (_intern(m.group(1)), _intern(m.group(2)), _intern(m.group(3)))
        if len(_decode_prefixes) >= _CACHE_LIMIT:
            _decode_prefixes.clear()
        _decode_prefixes[prefix] = hit
    try:
        seq = int(raw[cut + 6 : -3])
    except ValueError:
        return None
    return hit[0], hit[1], hit[2], seq


# ----------------------------------------------------------------------
# command decode
# ----------------------------------------------------------------------


def command_params(raw: str) -> Dict[str, str]:
    """The params of a wire :func:`scan_envelope` vouched for as a command.

    Values are stripped of XML whitespace and a repeated name keeps its
    last value, exactly as the parser and schema layer do.
    """
    return {name: value.strip(_WS) for name, value in _PARAM_RE.findall(raw)}


def split_command_wire(raw: str) -> Optional[Tuple[str, str, str, Dict[str, str]]]:
    """Decode a canonical command to ``(sender, target, verb, params)``.

    Returns ``None`` for anything that is not *exactly* the serializer's
    spelling; the full parser handles those identically (just slower).
    """
    m = _COMMAND_RE.match(raw)
    if m is None:
        return None
    sender, target, verb = m.groups()
    return sender, target, verb, command_params(raw)
