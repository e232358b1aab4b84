"""Tests for the typed command schema."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommandSchemaError, XmlParseError
from repro.xmlcmd.commands import (
    CommandMessage,
    FailureReport,
    LazyMessage,
    PingReply,
    PingRequest,
    RestartOrder,
    TelemetryFrame,
    encode_message,
    parse_message,
)
from repro.xmlcmd.fastpath import decode_envelope


def roundtrip(message):
    return parse_message(encode_message(message))


def test_ping_roundtrip():
    ping = PingRequest(sender="fd", target="ses", seq=17)
    assert roundtrip(ping) == ping


def test_ping_reply_roundtrip():
    reply = PingReply(sender="ses", target="fd", seq=17)
    assert roundtrip(reply) == reply


def test_command_roundtrip_with_params():
    command = CommandMessage(
        sender="ses", target="str", verb="track",
        params={"azimuth": "143.2", "elevation": "67.9"},
    )
    assert roundtrip(command) == command


def test_command_roundtrip_empty_params():
    command = CommandMessage(sender="a", target="b", verb="attach")
    assert roundtrip(command) == command


def test_telemetry_roundtrip():
    frame = TelemetryFrame(
        sender="fedr", target="ops", satellite="opal", pass_id="p42",
        payload_bytes=4800,
    )
    assert roundtrip(frame) == frame


def test_failure_report_roundtrip():
    report = FailureReport(
        sender="fd", target="rec", failed_components=("ses", "str"),
        detected_at=12.125,
    )
    assert roundtrip(report) == report


def test_restart_order_roundtrip():
    order = RestartOrder(
        sender="rec", target="fd", cell_id="R_ses_str",
        components=("ses", "str"), reason="begin",
    )
    assert roundtrip(order) == order


def test_unknown_type_rejected():
    with pytest.raises(CommandSchemaError):
        parse_message('<msg type="mystery" from="a" to="b"/>')


def test_wrong_document_element_rejected():
    with pytest.raises(CommandSchemaError):
        parse_message('<note type="ping" from="a" to="b" seq="1"/>')


def test_missing_required_attribute_rejected():
    with pytest.raises(CommandSchemaError):
        parse_message('<msg type="ping" from="a" seq="1"/>')  # no "to"


def test_non_integer_seq_rejected():
    with pytest.raises(CommandSchemaError):
        parse_message('<msg type="ping" from="a" to="b" seq="NaN"/>')


def test_empty_failure_report_rejected():
    with pytest.raises(CommandSchemaError):
        parse_message('<msg type="failure-report" from="fd" to="rec" detected-at="1.0"/>')


def test_param_without_name_rejected():
    with pytest.raises(CommandSchemaError):
        parse_message(
            '<msg type="command" from="a" to="b" verb="v"><param>x</param></msg>'
        )


def test_malformed_xml_raises_parse_error():
    with pytest.raises(XmlParseError):
        parse_message("<msg")


_names = st.from_regex(r"[a-z][a-z0-9_-]{0,10}", fullmatch=True)


@given(
    sender=_names,
    target=_names,
    verb=_names,
    params=st.dictionaries(
        _names, st.text(max_size=15).map(str.strip), max_size=4
    ),
)
@settings(max_examples=100, deadline=None)
def test_command_roundtrip_property(sender, target, verb, params):
    command = CommandMessage(sender, target, verb, params)
    assert roundtrip(command) == command


@given(sender=_names, target=_names, seq=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=50, deadline=None)
def test_ping_roundtrip_property(sender, target, seq):
    assert roundtrip(PingRequest(sender, target, seq)) == PingRequest(sender, target, seq)


# ----------------------------------------------------------------------
# LazyMessage: copying and pickling the proxy (ROADMAP 4d)
# ----------------------------------------------------------------------

_CLONERS = [
    pytest.param(copy.copy, id="copy"),
    pytest.param(copy.deepcopy, id="deepcopy"),
    *(
        pytest.param(lambda m, p=p: pickle.loads(pickle.dumps(m, p)), id=f"pickle{p}")
        for p in range(2, 6)
    ),
]

_LAZY_SUBJECTS = [
    CommandMessage("ses", "users", "svc-reply", {"req": "7", "svc": "telemetry"}),
    PingReply("ses", "fd", 17),
    TelemetryFrame("fedr", "ops", "opal", "p42", 4800),
]


@pytest.mark.parametrize("clone", _CLONERS)
@pytest.mark.parametrize("vouched", [True, False], ids=["wire", "text"])
@pytest.mark.parametrize("touched", [False, True], ids=["fresh", "materialized"])
@pytest.mark.parametrize("message", _LAZY_SUBJECTS, ids=lambda m: type(m).__name__)
def test_lazy_message_copies_and_pickles(message, touched, vouched, clone):
    """Used to die in ``RecursionError``: the half-built copy's missing
    ``_msg`` went through ``__getattr__`` into ``_materialize`` and back."""
    raw = encode_message(message)
    if not vouched:
        raw = str(raw)
    lazy = LazyMessage(raw, decode_envelope(raw))
    if touched:
        assert lazy.sender == message.sender
    twin = clone(lazy)
    assert type(twin) is LazyMessage and twin is not lazy
    assert twin.raw == raw and type(twin.raw) is type(raw)
    assert twin._envelope == lazy._envelope
    assert twin._msg is None  # decodes again, on its own first use
    assert twin == message and isinstance(twin, type(message))
    assert lazy == message


def test_half_built_lazy_message_raises_attribute_error():
    bare = LazyMessage.__new__(LazyMessage)
    for name in ("raw", "_envelope", "_msg", "__setstate__", "__deepcopy__"):
        with pytest.raises(AttributeError):
            getattr(bare, name)
    # ... while a built one still proxies every public field of its message.
    lazy = LazyMessage(encode_message(_LAZY_SUBJECTS[2]))
    assert lazy.satellite == "opal" and lazy.payload_bytes == 4800
