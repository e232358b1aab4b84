"""Fast-path equivalence tests: envelope scan, ping and command templating,
wire-level ping and command decode, and property-style round trips shared
between the legacy (full-parse) and fast decode paths.

Every test here enforces the same invariant: a fast path either produces a
result byte/field-identical to the full pipeline, or refuses (returns
``None``) so callers fall back to the full pipeline.
"""

import copy
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XmlError
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
    command_params,
    decode_envelope,
    encode_command_wire,
    encode_ping_wire,
    scan_envelope,
    split_command_wire,
    split_ping_wire,
)
from repro.xmlcmd.serializer import escape_attr, escape_text, serialize_xml

#: Both decode paths; every round-trip test runs under each.
DECODERS = [
    pytest.param(parse_message, id="fast"),
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


@pytest.mark.parametrize("decode", DECODERS)
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
    # a schema-valid ping in a non-canonical spelling: the fast decoder
    # refuses, the fallback accepts — parse_message output is unchanged.
    raw = "<msg type='ping' from='a' to='b' seq='1'/>"
    assert split_ping_wire(raw) is None
    assert parse_message(raw) == parse_message_full(raw) == PingRequest("a", "b", 1)


def test_split_ping_wire_embedded_seq_decoy():
    # an attribute value containing ' seq="' must not fool the prefix split
    raw = '<msg type="ping" from="a" to="b" seq="5"/>'.replace(
        'from="a"', 'from="a seq="'
    )
    decoy = split_ping_wire(raw)
    assert decoy is None
    assert parse_message(raw) == parse_message_full(raw)


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
    """More distinct start tags than the prefix cache holds: the rebuild
    must not change a byte, and the cache stays bounded."""
    for i in range(fastpath._CACHE_LIMIT + 50):
        message = CommandMessage(f"s{i}&", f'"t{i}"', "<v>", {"k": str(i)})
        assert encode_message(message) == serialize_xml(message.to_element())
        assert len(fastpath._command_prefixes) <= fastpath._CACHE_LIMIT
    # a key seen before the rebuild is simply re-derived
    first = CommandMessage("s0&", '"t0"', "<v>", {"k": "0"})
    assert encode_message(first) == serialize_xml(first.to_element())


#: Canonical and near-canonical wires the parser accepts.  The codec may
#: decode or refuse each one, but never disagree with the parser.
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
    expected = parse_message_full(raw)
    hit = split_command_wire(raw)
    assert hit is not None
    assert CommandMessage(*hit) == expected == parse_message(raw)
    envelope = scan_envelope(raw)
    assert envelope == ("command", expected.sender, expected.target, expected.verb, None)


def test_split_command_wire_decodes_the_documented_cases():
    body = '<msg type="command" from="a" to="b" verb="v">%s</msg>'
    assert split_command_wire(body % "") == ("a", "b", "v", {})
    twice = '<param name="x">1</param><param name="x">2</param>'
    assert split_command_wire(body % twice) == ("a", "b", "v", {"x": "2"})
    padded = '<param name="x"> 1 2\n</param><param name="y"/>'
    assert split_command_wire(body % padded) == ("a", "b", "v", {"x": "1 2", "y": ""})


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
    """Refusal sends the wire to the parser; whatever it decides stands."""
    assert split_command_wire(raw) is None
    envelope = scan_envelope(raw)
    assert envelope is None or envelope.kind != "command"
    try:
        expected = parse_message_full(raw)
    except XmlError:
        with pytest.raises(XmlError):
            parse_message(raw)
    else:
        assert parse_message(raw) == expected


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
    """Fuzz: both decode paths agree on accept/reject and on the result."""
    try:
        fast = parse_message(raw)
    except XmlError:
        with pytest.raises(XmlError):
            parse_message_full(raw)
        return
    assert fast == parse_message_full(raw)


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
        assert wire.params is None
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
        assert wire.params == command_params(text)
        assert list(wire.params) == list(command_params(text))  # same order
        assert parse_message(wire) == parse_message(text) == parse_message_full(text)


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
    ]
    assert [type(wire) for wire in plain] == [str] * len(plain)
    # ... and the neighbouring clean ones are vouched, empty params included.
    assert type(encode_ping_wire("ping", "a", "c", -1)) is Wire
    assert type(encode_command_wire("a", "b", "v", {})) is Wire
    assert type(encode_command_wire("a", "b", "v", {"k": ' "quoted" '})) is Wire


VOUCHED = [
    encode_message(PingRequest("fd", "ses", 17)),
    encode_message(CommandMessage("a", "mbus", "attach")),
    encode_message(SVC_REPLY),
    encode_message(CommandMessage("a", "b", "v", {"flag": "", "pad": " x "})),
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
        assert clone.params == wire.params
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
    assert split_command_wire(wire) == split_command_wire(text)
    assert command_params(wire) == command_params(text)
    assert parse_message_full(wire) == parse_message_full(text)


def test_each_decode_of_a_wire_gets_its_own_params():
    wire = encode_message(SVC_REPLY)
    first = parse_message(wire)
    first.params["req"] = "tampered"
    first.params.clear()
    assert parse_message(wire) == SVC_REPLY
    assert wire.params == SVC_REPLY.params


def test_decode_envelope_scans_plain_text():
    """Off the memo the decoder is the old pair: ping split, then scan."""
    for message in REGISTRY_MESSAGES:
        text = str(encode_message(message))
        assert decode_envelope(text) == scan_envelope(text)
    assert decode_envelope("<msg type='ping' from='a' to='b' seq='1'/>") == (
        "ping", "a", "b", None, 1,
    )
    assert decode_envelope("<not-xml") is None
