"""Wire-level codec for the XML command language: strings in, tuples out.

Nothing here builds an :class:`~repro.xmlcmd.document.Element` or knows a
message class; the typed layer (:mod:`repro.xmlcmd.commands`) reads a
:class:`Wire`'s memo first and keeps the element pipeline for everything
else.  Every function either produces exactly what the full pipeline
(:func:`~repro.xmlcmd.parser.parse_xml` +
:func:`~repro.xmlcmd.serializer.serialize_xml`) would, or returns ``None``
so the caller takes the full pipeline and gets identical behavior —
including identical error text in traces.

Encode (byte-identical to ``serialize_xml(message.to_element())``):

* :func:`encode_ping_wire` — cached ``(kind, sender, target)`` prefix, only
  ``seq`` substituted.  Pings are >90% of bus traffic in availability runs
  (FD's 1 s liveness loop, §2.2).
* :func:`encode_command_wire` — cached ``(sender, target, verb)`` start
  tag and cached ``<param>`` tag per name, children joined per item; only
  a value holding ``&``, ``<`` or ``>`` is escaped.  Every user request and
  reply is a command.

* :func:`encode_report_wire` / :func:`encode_order_wire` — the FD↔REC
  control kinds, ``failure-report`` and ``restart-order``, written straight
  from their fields.

The first two return a :class:`Wire` — the same text, carrying the
:class:`Envelope` (and params) :func:`scan_envelope` and the parser would
recover from it — whenever no field needed escaping, which is exactly when
the scan would vouch for the text anyway.  The control encoders vouch with
the message itself as the memo whenever the full parser would hand back an
equal message, escaped fields included: the scan does not read their
children, so the parser is the only decoder they are held equal to.
:func:`decode_envelope` is the receive sites' one call per message: it
reads that memo, and scans text only when handed a plain string.

Decode (text from outside the station only: every kind a station sends
comes out of its encoder as a :class:`Wire` — no station name needs
escaping, and no component sends telemetry):

* :func:`scan_envelope` — the routing fields (``type``/``from``/``to``/
  ``verb``/``seq``) of a canonical command or of a childless ping /
  telemetry start tag in any spelling, for broker routing and receiver-side
  vouching.  One anchored regex for the whole canonical command is the
  only command recogniser: a command in any other spelling (reordered
  attributes, single quotes, whitespace, entities, foreign children) is
  refused and judged by the parser.  ``failure-report`` /
  ``restart-order`` text always falls back: its validity depends on
  children.

The differential tests in ``tests/bus/test_fastpath_differential.py`` and
``tests/xmlcmd/test_fastpath.py`` enforce the either-identical-or-refuse
guarantee; DESIGN.md §8 has the per-hop table of who calls what.
"""

from __future__ import annotations

import re
from sys import intern as _intern
from typing import Dict, Mapping, NamedTuple, Optional, Tuple

from repro.errors import CommandSchemaError
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

    For a ping or a command, ``envelope`` is what :func:`scan_envelope`
    returns for this text and ``memo`` the params the parser reads from it,
    in document order (``None`` for a ping); those encoders build one only
    for text the scan accepts, so reading the memo and decoding the text
    are interchangeable.  For a ``failure-report`` or ``restart-order``,
    whose children the scan does not read, ``envelope`` is ``envelope_of``
    the message and ``memo`` the message itself: what the full parser
    returns for the text.
    It is a ``str`` in every other respect — compared, hashed, sliced,
    logged and serialized as its text — and as immutable: nobody writes the
    slots after :func:`vouch`, a receiver is handed a copy of a command's
    params, and a control message is an immutable tuple of ``str`` and
    ``float``.
    """

    __slots__ = ("envelope", "memo")

    def __reduce__(self):
        return vouch, (str(self), self.envelope, self.memo)

    def __deepcopy__(self, memo: dict) -> "Wire":
        return self


def vouch(text: str, envelope: "Envelope", memo: object = None) -> Wire:
    """The one place a :class:`Wire` is built."""
    wire = Wire(text)
    wire.envelope = envelope
    wire.memo = memo
    return wire


def decode_envelope(raw: str) -> Optional[Envelope]:
    """Routing fields of one received message, or ``None`` when only the
    full parser may judge it.

    A :class:`Wire` answers from its memo; plain text is judged by
    :func:`scan_envelope`.
    """
    if raw.__class__ is Wire:
        return raw.envelope
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
    :func:`scan_envelope` and the parser would refuse or read back as
    another type.
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

#: param name → (``<param name="…">``, ``<param name="…"/>``, whether the
#: name came through ``escape_attr`` unchanged).
_param_tags: Dict[str, Tuple[str, str, bool]] = {}


def _param_tag(name: str) -> Tuple[str, str, bool]:
    """Decide ``name`` once: escape it and cache its two tags."""
    if not isinstance(name, str):
        raise TypeError(name)
    if len(_param_tags) >= _CACHE_LIMIT:
        _param_tags.clear()
    attr = escape_attr(name)
    tag = _param_tags[name] = (
        f'<param name="{attr}">',
        f'<param name="{attr}"/>',
        attr == name,
    )
    return tag


def _reject_params(params: Mapping[str, str]) -> None:
    """Raise :class:`CommandSchemaError` for the first param whose name or
    value is not a ``str``; return if there is none."""
    for name, value in params.items():
        if not isinstance(name, str):
            raise CommandSchemaError(
                f"param name {name!r} is {type(name).__name__}, not str"
            ) from None
        if not isinstance(value, str):
            raise CommandSchemaError(
                f"param {name!r}: value {value!r} is {type(value).__name__}, not str"
            ) from None


def encode_command_wire(
    sender: str, target: str, verb: str, params: Mapping[str, str]
) -> str:
    """Serialize a command, byte-identical to the canonical form.

    Vouched (a :class:`Wire`) when neither the start tag nor any param
    needed escaping; the memoized params are the decoder's — values
    stripped of XML whitespace — in a dict of the wire's own.  Only a value
    holding ``&``, ``<`` or ``>`` goes through :func:`escape_text`; a param
    name is escaped once, when it enters ``_param_tags``.  A param name or
    value that is not a ``str`` raises :class:`CommandSchemaError`.
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
    tags = _param_tags
    try:
        for name, value in params.items():
            tag = tags.get(name)
            if tag is None:
                tag = _param_tag(name)
            if "&" in value or "<" in value or ">" in value:
                clean = False
                parts.append(tag[0] + escape_text(value) + "</param>")
                continue
            if value:
                # ``+``, not an f-string: a non-str value must raise here.
                parts.append(tag[0] + value + "</param>")
            elif isinstance(value, str):
                parts.append(tag[1])
            else:
                raise TypeError(value)  # an empty container
            if clean:
                if tag[2]:
                    decoded[name] = value.strip(_WS)
                else:
                    clean = False
    except (TypeError, AttributeError):
        _reject_params(params)
        raise
    parts.append("</msg>")
    text = "".join(parts)
    return vouch(text, envelope, decoded) if clean else text


#: The control messages' start tags, up to ``detected-at="`` for a report
#: (``(sender, target)``) and without its close for an order (``(sender,
#: target, cell, reason)``), and their children's tags by component name:
#: every name is escaped once, when it enters its cache.
_report_starts: Dict[Tuple[str, str], str] = {}
_order_starts: Dict[Tuple[str, str, str, str], str] = {}
_failed_tags: Dict[str, str] = {}
_component_tags: Dict[str, str] = {}


def _remember(cache: Dict[Any, str], key: Any, text: str) -> str:
    """Cache ``text`` under ``key``, rebuilding ``cache`` at the bound."""
    if len(cache) >= _CACHE_LIMIT:
        cache.clear()
    cache[key] = text
    return text


def encode_report_wire(
    sender: str, target: str, failed: tuple, detected_at: float, memo: object
) -> Optional[str]:
    """Serialize a failure report, byte-identical to the canonical form,
    vouched with ``memo`` (the message).

    ``None`` — the caller serializes the element tree — unless the full
    parser would return a message equal to ``memo``: a non-empty ``tuple``
    of ``str`` components and a ``detected_at`` that is a ``float`` proper
    and not NaN (``repr`` of anything else reads back as another value or
    not at all).
    """
    if (
        failed.__class__ is not tuple
        or not failed
        or detected_at.__class__ is not float
        or detected_at != detected_at
        or sender.__class__ is not str
        or target.__class__ is not str
        or not all(name.__class__ is str for name in failed)
    ):
        return None
    key = (sender, target)
    start = _report_starts.get(key) or _remember(
        _report_starts,
        key,
        f'<msg type="failure-report" from="{escape_attr(sender)}"'
        f' to="{escape_attr(target)}" detected-at="',
    )
    tags = _failed_tags
    children = "".join(
        [
            tags.get(name)
            or _remember(tags, name, f'<failed component="{escape_attr(name)}"/>')
            for name in failed
        ]
    )
    return vouch(
        f'{start}{detected_at!r}">{children}</msg>',
        Envelope("failure-report", sender, target, None, None),
        memo,
    )


def encode_order_wire(
    sender: str,
    target: str,
    cell: str,
    components: tuple,
    reason: str,
    memo: object,
) -> Optional[str]:
    """Serialize a restart order, byte-identical to the canonical form
    (self-closing when it names no component), vouched with ``memo`` (the
    message).

    ``None`` — the caller serializes the element tree — unless every field
    is a ``str`` proper and ``components`` a ``tuple`` of them.
    """
    if (
        components.__class__ is not tuple
        or sender.__class__ is not str
        or target.__class__ is not str
        or cell.__class__ is not str
        or reason.__class__ is not str
        or not all(name.__class__ is str for name in components)
    ):
        return None
    key = (sender, target, cell, reason)
    start = _order_starts.get(key) or _remember(
        _order_starts,
        key,
        f'<msg type="restart-order" from="{escape_attr(sender)}"'
        f' to="{escape_attr(target)}" cell="{escape_attr(cell)}"'
        f' reason="{escape_attr(reason)}"',
    )
    if components:
        tags = _component_tags
        children = "".join(
            [
                tags.get(name)
                or _remember(tags, name, f'<component name="{escape_attr(name)}"/>')
                for name in components
            ]
        )
        text = f"{start}>{children}</msg>"
    else:
        text = start + "/>"
    return vouch(text, Envelope("restart-order", sender, target, None, None), memo)


# ----------------------------------------------------------------------
# memoized ping decode
# ----------------------------------------------------------------------

# No receive site calls this: only the benchmark's ``xmlcmd.ping_codec_ns``
# timing does, so it stays until ROADMAP item 1(b) re-points that timing
# and deletes it.

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
