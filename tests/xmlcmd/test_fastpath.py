"""Fast-path equivalence tests: envelope scan, ping and command templating,
vouched wires, and property-style round trips shared between the legacy
(full-parse) decode and the fast one, which reads a vouched wire's memo.

Every test here enforces the same invariant: a fast path either produces a
result byte/field-identical to the full pipeline, or refuses (returns
``None``, or leaves the wire plain text) so callers fall back to the full
pipeline.
"""

import copy
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommandSchemaError, XmlError
from repro.xmlcmd.commands import (
    CommandMessage,
    FailureReport,
    PingReply,
    PingRequest,
    RestartOrder,
    TelemetryFrame,
    encode_message,
    envelope_of,
    parse_message,
    parse_message_full,
)
from repro.xmlcmd import fastpath
from repro.xmlcmd.fastpath import (
    Envelope,
    Wire,
    decode_envelope,
    encode_command_wire,
    encode_ping_wire,
    scan_envelope,
    split_ping_wire,
)
from repro.xmlcmd.serializer import escape_attr, escape_text, serialize_xml


def _from_memo(raw):
    """The fast arm: the encoder vouched for ``raw`` and it decodes from the
    memo.  Only telemetry, which no component sends, and a ping or command
    with an escaped field (an entity in its text) stay plain text."""
    message = parse_message(raw)
    plain = message.__class__ is TelemetryFrame or (
        message.__class__ not in (FailureReport, RestartOrder) and "&" in raw
    )
    assert (raw.__class__ is Wire) != plain
    return message


#: Both decode paths of an encoder's output; every round-trip test runs
#: under each.
DECODERS = [
    pytest.param(_from_memo, id="fast"),
    pytest.param(parse_message_full, id="legacy"),
]

#: The user-traffic reply: the three-param command every request costs.
SVC_REPLY = CommandMessage(
    "ses", "users", "svc-reply", {"req": "4711", "svc": "telemetry", "solutions": "12"}
)

REGISTRY_MESSAGES = [
    PingRequest("fd", "ses", 17),
    PingReply("ses", "fd", 17),
    CommandMessage("a", "mbus", "attach"),
    CommandMessage("ses", "str", "track", {"azimuth": "143.2", "elevation": "67.9"}),
    SVC_REPLY,
    TelemetryFrame("fedr", "ops", "opal", "p42", 4800),
    FailureReport("fd", "rec", ("ses", "str"), 12.125),
    RestartOrder("rec", "fd", "R_ses_str", ("ses", "str"), "begin"),
]


@pytest.mark.parametrize("decode", DECODERS)
@pytest.mark.parametrize("message", REGISTRY_MESSAGES, ids=lambda m: type(m).__name__)
def test_roundtrip_identical_on_both_paths(decode, message):
    assert decode(encode_message(message)) == message


@pytest.mark.parametrize("message", REGISTRY_MESSAGES, ids=lambda m: type(m).__name__)
def test_fast_encode_matches_generic_serializer(message):
    assert encode_message(message) == serialize_xml(message.to_element())


def _received(raw):
    """What a receive site does with plain text: the scan refuses to vouch
    for it, so the parser judges it."""
    assert decode_envelope(raw) is None
    return parse_message(raw)


@pytest.mark.parametrize(
    "decode",
    [pytest.param(_received, id="fast"), pytest.param(parse_message_full, id="legacy")],
)
@pytest.mark.parametrize(
    "bad",
    [
        "<not-xml",
        "",
        '<msg type="ping" from="a" to="b" seq="NaN"/>',
        '<msg type="ping" from="a" seq="1"/>',
        '<msg type="mystery" from="a" to="b"/>',
        '<note type="ping" from="a" to="b" seq="1"/>',
        '<msg type="ping" from="a" to="b" seq="1"/>junk',
        '<msg type="ping" from="a" to="b" seq="1" seq="2"/>',
        '<msg type="failure-report" from="fd" to="rec" detected-at="1.0"/>',
    ],
)
def test_malformed_rejected_on_both_paths(decode, bad):
    with pytest.raises(XmlError):
        decode(bad)


# ----------------------------------------------------------------------
# ping templating and memoized decode
# ----------------------------------------------------------------------

def test_encode_ping_wire_escapes_like_serializer():
    ping = PingRequest('we&"ird', "<x>", 3)
    assert encode_ping_wire("ping", ping.sender, ping.target, ping.seq) == serialize_xml(
        ping.to_element()
    )


def test_split_ping_wire_roundtrip():
    raw = encode_ping_wire("ping-reply", "ses", "fd", 99)
    assert split_ping_wire(raw) == ("ping-reply", "ses", "fd", 99)


def test_split_ping_wire_memo_hits_same_pair():
    first = split_ping_wire(encode_ping_wire("ping", "fd", "ses", 1))
    second = split_ping_wire(encode_ping_wire("ping", "fd", "ses", 2))
    assert first == ("ping", "fd", "ses", 1)
    assert second == ("ping", "fd", "ses", 2)
    # interned identity: the memo returns the same sender/target objects
    assert first[1] is second[1] and first[2] is second[2]


@pytest.mark.parametrize(
    "raw",
    [
        "<other/>",
        '<msg type="ping" from="a" to="b"/>',  # no seq
        "<msg type='ping' from='a' to='b' seq='1'/>",  # non-canonical quoting
        '<msg  type="ping" from="a" to="b" seq="1"/>',  # non-canonical spacing
        '<msg type="ping" from="a" to="b" seq="1" extra="x"/>',
        '<msg type="ping" from="a&amp;b" to="c" seq="1"/>',  # needs decoding
        '<msg type="command" from="a" to="b" verb="v" seq="1"/>',
    ],
)
def test_split_ping_wire_refuses_non_canonical(raw):
    assert split_ping_wire(raw) is None


def test_split_ping_refusals_still_parse_identically():
    # a schema-valid ping in a non-canonical spelling: the split refuses,
    # the scan and the parser accept it alike.
    raw = "<msg type='ping' from='a' to='b' seq='1'/>"
    assert split_ping_wire(raw) is None
    assert parse_message(raw) == PingRequest("a", "b", 1)
    assert decode_envelope(raw) == envelope_of(PingRequest("a", "b", 1))


def test_split_ping_wire_embedded_seq_decoy():
    # an attribute value containing ' seq="' must not fool the prefix split
    raw = '<msg type="ping" from="a" to="b" seq="5"/>'.replace(
        'from="a"', 'from="a seq="'
    )
    decoy = split_ping_wire(raw)
    assert decoy is None
    assert decode_envelope(raw) == envelope_of(parse_message(raw))
    assert parse_message(raw) == PingRequest("a seq=", "b", 5)


# ----------------------------------------------------------------------
# command templating and wire-level decode
# ----------------------------------------------------------------------

def test_escape_chain_matches_sequential_replace():
    """The entity tables the literal chains replaced, applied in order."""
    tables = {
        escape_text: (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;")),
        escape_attr: (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;")),
    }
    for value in ("", "plain", "&amp;", '<a b="c">&</a>', "&&<<>>\"\"", "'&lt;'"):
        for escape, table in tables.items():
            expected = value
            for char, entity in table:
                expected = expected.replace(char, entity)
            assert escape(value) == expected


def test_encode_command_wire_survives_cache_rebuild():
    """More distinct start tags and param names than the caches hold: the
    rebuilds must not change a byte, and both caches stay bounded."""
    for i in range(fastpath._CACHE_LIMIT + 50):
        message = CommandMessage(f"s{i}&", f'"t{i}"', "<v>", {"k": str(i)})
        assert encode_message(message) == serialize_xml(message.to_element())
        assert len(fastpath._command_prefixes) <= fastpath._CACHE_LIMIT
    for i in range(fastpath._CACHE_LIMIT + 50):
        message = CommandMessage("s", "t", "v", {f"n{i}": "1", f'"q{i}"': "", "k": "x"})
        wire = encode_message(message)
        assert wire == serialize_xml(message.to_element())
        assert type(wire) is str  # the quoted name, decided once, stays unclean
        assert len(fastpath._param_tags) <= fastpath._CACHE_LIMIT
    # keys seen before the rebuilds are simply re-derived
    first = CommandMessage("s0&", '"t0"', "<v>", {"k": "0"})
    assert encode_message(first) == serialize_xml(first.to_element())
    named = CommandMessage("s", "t", "v", {"n0": "1", '"q0"': ""})
    assert encode_message(named) == serialize_xml(named.to_element())
    assert type(encode_message(CommandMessage("s", "t", "v", {"n0": "1"}))) is Wire


#: Canonical command wires the parser accepts, duplicate names and padded
#: values included: the scan vouches for each one, and never disagrees with
#: the parser.
ACCEPTED_COMMAND_WIRES = [
    encode_message(CommandMessage("a", "mbus", "attach")),
    encode_message(SVC_REPLY),
    encode_message(CommandMessage("a", "b", "v", {"flag": "", "x": "1"})),
    '<msg type="command" from="a" to="b" verb="v"></msg>',  # empty params
    '<msg type="command" from="a" to="b" verb="v"><param name="x">1</param>'
    '<param name="x">2</param></msg>',  # duplicate name: last wins
    '<msg type="command" from="a" to="b" verb="v"><param name="x"> \t1 2\r\n</param></msg>',
    '<msg type="command" from="a" to="b" verb="v"><param name="x"> </param></msg>',
    '<msg type="command" from="a>b" to="it\'s" verb=" v "><param name=" n ">1</param></msg>',
]


@pytest.mark.parametrize("raw", ACCEPTED_COMMAND_WIRES)
def test_split_command_wire_agrees_with_full_parse(raw):
    """The command regex behind the scan accepts the canonical spelling and
    reads the parser's routing fields from it."""
    expected = parse_message_full(raw)
    envelope = scan_envelope(raw)
    assert envelope == ("command", expected.sender, expected.target, expected.verb, None)
    assert envelope == envelope_of(expected) == decode_envelope(raw)


def test_split_command_wire_decodes_the_documented_cases():
    """What a command's params decode to, which a vouched command's memo
    must equal: no children is no params, a repeated name keeps its last
    value, values lose their XML whitespace, an empty param is ``""``."""
    body = '<msg type="command" from="a" to="b" verb="v">%s</msg>'
    assert parse_message(body % "") == CommandMessage("a", "b", "v", {})
    twice = '<param name="x">1</param><param name="x">2</param>'
    assert parse_message(body % twice) == CommandMessage("a", "b", "v", {"x": "2"})
    padded = '<param name="x"> 1 2\n</param><param name="y"/>'
    assert parse_message(body % padded) == CommandMessage(
        "a", "b", "v", {"x": "1 2", "y": ""}
    )
    memo = encode_command_wire("a", "b", "v", {"x": " 1 2\n", "y": ""}).memo
    assert memo == {"x": "1 2", "y": ""}


@pytest.mark.parametrize(
    "raw",
    [
        "<msg type='command' from='a' to='b' verb='v'/>",  # single quotes
        '<msg from="a" type="command" to="b" verb="v"/>',  # reordered
        '<msg type="command" from="a" to="b" verb="v" extra="x"/>',  # extra
        '<msg type="command" from="a" to="b" verb="v" verb="w"/>',  # duplicate
        '<msg type="command" from="a" to="b"/>',  # no verb
        '<msg type="command" from="a" to="b" verb="v" />',  # space before />
        '<msg type="command"  from="a" to="b" verb="v"/>',  # double space
        '<msg type="command" from="a&amp;b" to="b" verb="v"/>',  # entity
        '<msg type="command" from="a" to="b" verb="v"><param name="x">a&amp;b</param></msg>',
        '<msg type="command" from="a" to="b" verb="v"><param name="x"><y/></param></msg>',
        '<msg type="command" from="a" to="b" verb="v"><other/></msg>',  # foreign
        '<msg type="command" from="a" to="b" verb="v">text<param name="x">1</param></msg>',
        '<msg type="command" from="a" to="b" verb="v"><param name="x">1</param> </msg>',
        '<msg type="command" from="a" to="b" verb="v"><param name="x" />  </msg>',
        '<msg type="command" from="a" to="b" verb="v"><param name="x" name="y"/></msg>',
        '<msg type="command" from="a" to="b" verb="v"><param>1</param></msg>',
        '<msg type="command" from="a" to="b" verb="v"><param name="x">1</param>',  # unclosed
        '<msg type="command" from="a" to="b" verb="v"/>junk',  # trailing junk
        '<msg type="command" from="a" to="b" verb="v"></msg>\n',  # trailing newline
        ' <msg type="command" from="a" to="b" verb="v"/>',  # leading space
        '<msg type="ping" from="a" to="b" seq="1"/>',  # not a command
    ],
)
def test_split_command_wire_refuses_non_canonical(raw):
    """The command regex behind the scan knows one spelling: any other is
    not vouched for as a command, so the parser judges it."""
    envelope = scan_envelope(raw)
    assert envelope is None or envelope.kind != "command"


# ----------------------------------------------------------------------
# envelope scan
# ----------------------------------------------------------------------

@pytest.mark.parametrize("message", REGISTRY_MESSAGES, ids=lambda m: type(m).__name__)
def test_envelope_agrees_with_full_parse(message):
    raw = encode_message(message)
    envelope = scan_envelope(raw)
    if envelope is None:
        # refusal is always allowed — the caller full-parses instead
        return
    parsed = parse_message_full(raw)
    assert envelope.sender == parsed.sender
    assert envelope.target == parsed.target
    if envelope.verb is not None:
        assert envelope.verb == parsed.verb
    if envelope.seq is not None:
        assert envelope.seq == parsed.seq


def test_envelope_covers_the_hot_shapes():
    # the shapes that dominate bus traffic must NOT fall back
    assert scan_envelope(encode_message(PingRequest("fd", "mbus", 1))) is not None
    assert scan_envelope(encode_message(PingReply("mbus", "fd", 1))) is not None
    assert scan_envelope(encode_message(CommandMessage("a", "mbus", "attach"))) is not None
    assert scan_envelope(encode_message(TelemetryFrame("a", "b", "s", "p", 10))) is not None
    # commands with canonical <param> bodies are the mixed-traffic shape
    # that used to stall on the full-parse fallback (ROADMAP item 5)
    track = CommandMessage("ses", "str", "track", {"azimuth": "143.2", "elevation": "67.9"})
    envelope = scan_envelope(encode_message(track))
    assert envelope is not None and envelope.verb == "track"
    empty = CommandMessage("a", "b", "v", {"flag": ""})
    assert scan_envelope(encode_message(empty)) is not None
    reply = scan_envelope(encode_message(SVC_REPLY))
    assert reply == ("command", "ses", "users", "svc-reply", None)


@pytest.mark.parametrize(
    "raw",
    [
        "<not-xml",
        "<other from='a' to='b'/>",
        '<msg type="ping" from="a" to="b" seq="NaN"/>',
        '<msg type="ping" from="a" to="b" seq="1" seq="2"/>',  # duplicate
        '<msg type="ping" from="a" to="b" seq="1"/>junk',  # trailing junk
        '<msg type="mystery" from="a" to="b"/>',  # unknown kind
        '<msg type="command" from="a" to="b"/>',  # command without verb
        '<msg type="telemetry" from="a" to="b" satellite="s" pass="p" bytes="x"/>',
        '<msg type="failure-report" from="fd" to="rec" detected-at="1.0"/>',
        # non-canonical command bodies: only the exact serializer shape is
        # envelope-scannable, everything else needs the full parser
        '<msg type="command" from="a" to="b" verb="v"><param name="x">1</param>',
        '<msg type="command" from="a" to="b" verb="v"> <param name="x">1</param></msg>',
        '<msg type="command" from="a" to="b" verb="v"><other/></msg>',
        '<msg type="command" from="a" to="b" verb="v"><param name="x">a&amp;b</param></msg>',
        "<msg type=\"command\" from=\"a\" to=\"b\" verb=\"v\"><param name='x'>1</param></msg>",
        '<msg type="command" from="a" to="b" verb="v"><param>1</param></msg>',
        '<msg type="ping" from="a" to="b" seq="1"></msg>',  # only commands may have a body
        # schema-valid commands in a non-canonical spelling: there is one
        # command recogniser and it knows one spelling
        "<msg type='command' from='a' to='b' verb='v'/>",
        '<msg from="a" type="command" to="b" verb="v"/>',
        '<msg type="command" from="a" to="b" verb="v" />',
    ],
)
def test_envelope_refuses_anything_it_cannot_guarantee(raw):
    """Inputs the full parser rejects, or whose judgement needs children,
    must never be envelope-routed."""
    assert scan_envelope(raw) is None


# ----------------------------------------------------------------------
# property-style round trips, shared across both decode paths
# ----------------------------------------------------------------------

_names = st.from_regex(r"[a-z][a-z0-9_-]{0,10}", fullmatch=True)
_attr_text = st.text(max_size=15).map(str.strip)


@pytest.mark.parametrize("decode", DECODERS)
@given(sender=_names, target=_names, seq=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=50, deadline=None)
def test_ping_roundtrip_property_both_paths(decode, sender, target, seq):
    for cls in (PingRequest, PingReply):
        message = cls(sender, target, seq)
        assert decode(encode_message(message)) == message


@pytest.mark.parametrize("decode", DECODERS)
@given(
    sender=_names,
    target=_names,
    verb=_names,
    params=st.dictionaries(_names, _attr_text, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_command_roundtrip_property_both_paths(decode, sender, target, verb, params):
    message = CommandMessage(sender, target, verb, params)
    assert decode(encode_message(message)) == message


@given(sender=_attr_text, target=_attr_text, seq=st.integers())
@settings(max_examples=60, deadline=None)
def test_ping_template_matches_serializer_property(sender, target, seq):
    """Escaping-heavy names: the cached template must stay byte-identical."""
    message = PingRequest(sender, target, seq)
    wire = encode_message(message)
    assert wire == serialize_xml(message.to_element())
    assert parse_message_full(wire) == message


#: Text that stresses the encoder: the escapable characters in every
#: position, empty values, values padded with XML whitespace.
_wire_text = st.one_of(
    _attr_text,
    st.text(alphabet='"&<>\'ab ', max_size=8),
    st.just(""),
    st.builds("{}{}{}".format, st.sampled_from([" ", "\t", "\r\n"]), _attr_text, st.just(" ")),
)


@given(
    sender=_wire_text,
    target=_wire_text,
    verb=_wire_text,
    params=st.dictionaries(_wire_text, _wire_text, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_command_template_matches_serializer_property(sender, target, verb, params):
    """Escaping-heavy commands: template and generic serializer agree
    byte for byte, and the wire decodes the same on both paths."""
    message = CommandMessage(sender, target, verb, params)
    wire = encode_message(message)
    assert wire == encode_command_wire(sender, target, verb, params)
    assert wire == serialize_xml(message.to_element())
    assert parse_message(wire) == parse_message_full(wire)


#: Command-shaped text: a start tag (canonical or a near miss), a body of
#: whole children (canonical or foreign), a close and maybe trailing junk —
#: so the fuzzer reaches the command recogniser, and about one example in
#: ten gets through it, instead of dying at the first character.
_CANONICAL_HEAD = '<msg type="command" from="a" to="b" verb="v"'
_command_fragments = st.builds(
    "{}{}{}".format,
    st.sampled_from(
        [_CANONICAL_HEAD] * 3
        + [
            _CANONICAL_HEAD + ' seq="1"',
            _CANONICAL_HEAD.replace('"', "'"),
            '<msg to="b" type="command" from="a" verb="v"',
            '<msg type="command" from="a" to="b"',
        ]
    ),
    st.one_of(
        st.just("/>"),
        st.lists(
            st.sampled_from(
                [
                    '<param name="x">1</param>',
                    '<param name="x"> 1 </param>',
                    '<param name="y"/>',
                    '<param name="y"></param>',
                    '<param name="x">&amp;</param>',
                    "<other/>",
                    "<!-- c -->",
                    " ",
                ]
            ),
            max_size=4,
        ).map(lambda children: ">" + "".join(children) + "</msg>"),
        st.just('><param name="x">1'),
    ),
    st.sampled_from(["", "", " ", "junk"]),
)


@given(raw=st.one_of(st.text(max_size=40), _command_fragments))
@settings(max_examples=300, deadline=None)
def test_arbitrary_text_never_diverges(raw):
    """Fuzz the one text scanner: it refuses, or the parser accepts the
    text and reads the very envelope the scan did."""
    envelope = decode_envelope(raw)
    if envelope is not None:
        assert envelope == envelope_of(parse_message_full(raw))


# ----------------------------------------------------------------------
# vouched wires: the encoder's memo against the text it rides on
# ----------------------------------------------------------------------

#: What callers really pass as ``seq`` plus what they could: a ``bool`` and
#: a digit string format into ping text but are not the decoder's ``int``.
_seqs = st.one_of(st.integers(), st.booleans(), st.integers(min_value=0).map(str))


def _clean(*attrs, texts=()):
    return all(escape_attr(a) == a for a in attrs) and all(
        escape_text(t) == t for t in texts
    )


@given(
    kind=st.sampled_from(["ping", "ping-reply"]),
    sender=_wire_text,
    target=_wire_text,
    seq=_seqs,
)
@settings(max_examples=150, deadline=None)
def test_ping_wire_is_vouched_iff_clean_and_memo_equals_scan(kind, sender, target, seq):
    wire = encode_ping_wire(kind, sender, target, seq)
    cls = PingRequest if kind == "ping" else PingReply
    assert wire == serialize_xml(cls(sender, target, seq).to_element())
    assert (wire.__class__ is Wire) == (_clean(sender, target) and type(seq) is int)
    if wire.__class__ is Wire:
        text = str(wire)
        assert wire.envelope == scan_envelope(text) == decode_envelope(text)
        assert wire.envelope == envelope_of(parse_message_full(text))
        assert wire.memo is None
        assert parse_message(wire) == parse_message(text) == parse_message_full(text)


@given(
    sender=_wire_text,
    target=_wire_text,
    verb=_wire_text,
    params=st.dictionaries(_wire_text, _wire_text, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_command_wire_is_vouched_iff_clean_and_memo_equals_scan(
    sender, target, verb, params
):
    wire = encode_command_wire(sender, target, verb, params)
    message = CommandMessage(sender, target, verb, params)
    assert wire == serialize_xml(message.to_element())
    clean = _clean(sender, target, verb, *params, texts=params.values())
    assert (wire.__class__ is Wire) == clean
    if clean:
        text = str(wire)
        assert wire.envelope == scan_envelope(text) == decode_envelope(text)
        assert wire.envelope == envelope_of(parse_message_full(text))
        params = parse_message_full(text).params
        assert wire.memo == params
        assert list(wire.memo) == list(params)  # same order
        assert parse_message(wire) == parse_message(text) == parse_message_full(text)


#: Component lists as FD and REC pass them, and the empty one a restart
#: order may carry and a failure report may not.
_names = st.lists(_wire_text, max_size=3).map(tuple)

#: ``detected_at`` as FD passes it (``kernel.now``, a ``float``) and as a
#: caller could: an ``int`` formats into text the parser reads as a float.
_stamps = st.one_of(
    st.floats(allow_nan=False), st.integers(min_value=-(10**20), max_value=10**20)
)


@given(sender=_wire_text, target=_wire_text, failed=_names, detected_at=_stamps)
@settings(max_examples=200, deadline=None)
def test_failure_report_is_vouched_iff_the_parser_returns_it(
    sender, target, failed, detected_at
):
    message = FailureReport(sender, target, failed, detected_at)
    wire = encode_message(message)
    text = str(wire)
    assert text == serialize_xml(message.to_element())
    vouched = bool(failed) and type(detected_at) is float
    assert (wire.__class__ is Wire) == vouched
    if vouched:
        assert wire.memo is message
        assert wire.envelope == envelope_of(message) == decode_envelope(wire)
        assert parse_message(wire) == parse_message_full(text) == message


@given(
    sender=_wire_text,
    target=_wire_text,
    cell=_wire_text,
    components=_names,
    reason=_wire_text,
)
@settings(max_examples=200, deadline=None)
def test_restart_order_is_vouched_and_the_parser_returns_it(
    sender, target, cell, components, reason
):
    message = RestartOrder(sender, target, cell, components, reason)
    wire = encode_message(message)
    text = str(wire)
    assert text == serialize_xml(message.to_element())
    assert wire.__class__ is Wire and wire.memo is message
    assert wire.envelope == envelope_of(message) == decode_envelope(wire)
    assert parse_message(wire) == parse_message_full(text) == message


class _Name(str):
    pass


@pytest.mark.parametrize(
    "message",
    [
        FailureReport("fd", "rec", (), 1.5),  # the parser refuses it
        FailureReport("fd", "rec", ("ses",), 2),  # reads back as 2.0
        FailureReport("fd", "rec", ("ses",), float("nan")),  # equal to nothing
        FailureReport("fd", "rec", ["ses"], 1.5),  # reads back as a tuple
        FailureReport("fd", "rec", (_Name("ses"),), 1.5),
        RestartOrder("rec", "fd", "R_ses", ["ses"], "begin"),
        RestartOrder("rec", "fd", _Name("R_ses"), ("ses",), "begin"),
    ],
    ids=repr,
)
def test_a_control_message_the_parser_would_not_return_stays_plain_text(message):
    wire = encode_message(message)
    assert type(wire) is str and wire == serialize_xml(message.to_element())


def test_unclean_or_foreign_fields_stay_plain_text():
    """One case per clause of the clean-field rule."""
    plain = [
        encode_ping_wire("ping", "a&b", "c", 1),
        encode_ping_wire("ping", "a", 'c"', 1),
        encode_ping_wire("ping", "a", "c", True),
        encode_ping_wire("ping", "a", "c", "1"),
        encode_ping_wire("pong", "a", "c", 1),  # not a kind the splitter knows
        encode_command_wire("a>", "b", "v", {}),
        encode_command_wire("a", "b", "<v>", {"k": "1"}),
        encode_command_wire("a", "b", "v", {"k": "1 & 2"}),
        encode_command_wire("a", "b", "v", {'k"': "1"}),
        # A dirty value anywhere: the params memo built so far is dropped.
        encode_command_wire("a", "b", "v", {"k": "1", "j": "<2>"}),
        encode_command_wire("a", "b", "v", {"j": "<2>", "k": "1"}),
    ]
    assert [type(wire) for wire in plain] == [str] * len(plain)
    # ... and the neighbouring clean ones are vouched, empty params included.
    assert type(encode_ping_wire("ping", "a", "c", -1)) is Wire
    assert type(encode_command_wire("a", "b", "v", {})) is Wire
    assert type(encode_command_wire("a", "b", "v", {"k": ' "quoted" '})) is Wire


@pytest.mark.parametrize(
    "params, named",
    [
        ({5: "1"}, "5"),
        ({"n": 5}, "'n'"),
        ({"k": "1", "n": None}, "'n'"),
        ({"k": "1", "n": ["x"]}, "'n'"),
        ({"k": "1", "n": []}, "'n'"),
        ({"k": "1&", "n": b"x"}, "'n'"),
        ({"k": "1&", "n": ()}, "'n'"),  # no memo to trip over: the wire is dirty
    ],
)
def test_a_param_that_is_not_str_fails_loudly_and_by_name(params, named):
    with pytest.raises(CommandSchemaError, match=f"param (name )?{named}"):
        encode_message(CommandMessage("a", "b", "v", params))


VOUCHED = [
    encode_message(PingRequest("fd", "ses", 17)),
    encode_message(CommandMessage("a", "mbus", "attach")),
    encode_message(SVC_REPLY),
    encode_message(CommandMessage("a", "b", "v", {"flag": "", "pad": " x "})),
    encode_message(FailureReport("fd", "rec", ("ses", "str"), 12.125)),
    encode_message(RestartOrder("rec", "fd", "R_ses_str", (), "complete")),
]


@pytest.mark.parametrize("wire", VOUCHED)
def test_wire_copies_and_pickles_with_its_memo(wire):
    assert type(wire) is Wire
    clones = [copy.copy(wire), copy.deepcopy(wire), copy.deepcopy([wire])[0]]
    clones += [pickle.loads(pickle.dumps(wire, protocol)) for protocol in range(2, 6)]
    for clone in clones:
        assert type(clone) is Wire
        assert str(clone) == str(wire)
        assert clone.envelope == wire.envelope and type(clone.envelope) is Envelope
        assert clone.memo == wire.memo
    assert not hasattr(wire, "__dict__")


@pytest.mark.parametrize("wire", VOUCHED)
def test_wire_is_its_text_to_everything_else(wire):
    text = str(wire)
    assert type(text) is str and wire == text and hash(wire) == hash(text)
    assert json.loads(json.dumps({"raw": wire, "log": [wire]})) == {
        "raw": text,
        "log": [text],
    }
    # The text decoders slice and match: nothing they intern is the Wire
    # itself (``sys.intern`` raises TypeError on a str subclass).
    assert scan_envelope(wire) == scan_envelope(text)
    assert split_ping_wire(wire) == split_ping_wire(text)
    assert parse_message_full(wire) == parse_message_full(text)


def test_each_decode_of_a_wire_gets_its_own_params():
    wire = encode_message(SVC_REPLY)
    first = parse_message(wire)
    first.params["req"] = "tampered"
    first.params.clear()
    assert parse_message(wire) == SVC_REPLY
    assert wire.memo == SVC_REPLY.params


def test_decode_envelope_scans_plain_text():
    """Off the memo the decoder is the scan."""
    for message in REGISTRY_MESSAGES:
        text = str(encode_message(message))
        assert decode_envelope(text) == scan_envelope(text)
    assert decode_envelope("<msg type='ping' from='a' to='b' seq='1'/>") == (
        "ping", "a", "b", None, 1,
    )
    assert decode_envelope("<not-xml") is None
