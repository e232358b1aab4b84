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
    PingReply,
    PingRequest,
    RestartOrder,
    TelemetryFrame,
    encode_message,
    envelope_of,
    parse_message,
)


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
# the schema classes: class-strict, immutable, copyable
# ----------------------------------------------------------------------

_SUBJECTS = [
    CommandMessage("ses", "users", "svc-reply", {"req": "7", "svc": "telemetry"}),
    PingReply("ses", "fd", 17),
    TelemetryFrame("fedr", "ops", "opal", "p42", 4800),
    PingRequest("fd", "ses", 17),
    FailureReport("fd", "rec", ("ses", "str"), 12.125),
    RestartOrder("rec", "fd", "R_ses_str", ("ses", "str"), "begin"),
]

_CLONERS = [
    pytest.param(copy.copy, id="copy"),
    pytest.param(copy.deepcopy, id="deepcopy"),
    *(
        pytest.param(lambda m, p=p: pickle.loads(pickle.dumps(m, p)), id=f"pickle{p}")
        for p in range(2, 6)
    ),
]


@pytest.mark.parametrize("clone", _CLONERS)
@pytest.mark.parametrize("vouched", [True, False], ids=["wire", "text"])
@pytest.mark.parametrize("touched", [False, True], ids=["fresh", "materialized"])
@pytest.mark.parametrize("message", _SUBJECTS, ids=lambda m: type(m).__name__)
def test_lazy_message_copies_and_pickles(message, touched, vouched, clone):
    """A message stays lazy — still its wire — until a receive site decodes
    it, and a snapshot fork or a template blob may clone it on either side
    of that moment.  Cloning the wire and decoding the clone ("fresh"), or
    decoding and cloning the message ("materialized"), gives back an equal
    message of the sender's exact class, and leaves the original alone."""
    raw = encode_message(message)
    if not vouched:
        raw = str(raw)
    if touched:
        decoded = parse_message(raw)
        twin = clone(decoded)
        assert twin is not decoded and decoded == message
    else:
        wire = clone(raw)
        assert wire == raw and type(wire) is type(raw)
        twin = parse_message(wire)
    assert type(twin) is type(message) and twin == message


@pytest.mark.parametrize("clone", _CLONERS)
def test_every_message_class_copies_and_pickles(clone):
    for message in [*_SUBJECTS, CommandMessage("ops", "mbus", "attach")]:
        twin = clone(message)
        assert type(twin) is type(message) and twin == message


def test_equality_is_class_strict_in_both_operand_orders():
    for message in _SUBJECTS:
        strangers = [tuple(message), envelope_of(message)]
        if isinstance(message, (PingRequest, PingReply)):
            other = PingReply if isinstance(message, PingRequest) else PingRequest
            strangers.append(other(*message))
        for stranger in strangers:
            assert not message == stranger and not stranger == message
            assert message != stranger and stranger != message
        twin = type(message)(*message)
        assert message == twin and not message != twin


def test_equal_pings_hash_equal_and_dict_params_stay_unhashable():
    assert hash(PingRequest("fd", "ses", 17)) == hash(PingRequest("fd", "ses", 17))
    assert len({PingRequest("fd", "ses", 17), PingRequest("fd", "ses", 17)}) == 1
    assert len({PingRequest("fd", "ses", 17), PingReply("fd", "ses", 17)}) == 2
    with pytest.raises(TypeError):
        hash(CommandMessage("ses", "users", "svc-reply", {"req": "7"}))


@pytest.mark.parametrize("message", _SUBJECTS, ids=lambda m: type(m).__name__)
def test_messages_refuse_attribute_assignment(message):
    with pytest.raises(AttributeError):
        message.sender = "intruder"
    with pytest.raises(AttributeError):
        message.extra = 1


def test_default_params_cannot_carry_state_to_the_next_command():
    first = CommandMessage("ops", "mbus", "attach")
    with pytest.raises(TypeError):
        first.params["req"] = "7"
    with pytest.raises(AttributeError):
        first.params.update(req="7")
    second = CommandMessage("ses", "mbus", "attach")
    assert second.params == {} and not second.params and list(second.params) == []
    assert second.params.get("req") is None
    assert encode_message(second) == encode_message(
        CommandMessage("ses", "mbus", "attach", {})
    )
