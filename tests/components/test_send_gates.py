"""The gates in front of the two command senders.

``BusAttachedBehavior.send`` and ``BusClient.send`` read their endpoint
once and test it as attributes; the behavior also applies the fail-slow
gate first.  Each gate is checked here against a recording endpoint, so a
refused send is seen to put nothing on the wire.
"""

from types import SimpleNamespace

import pytest

from repro.bus.client import BusClient
from repro.components.base import BusAttachedBehavior
from repro.errors import ChannelClosedError
from repro.xmlcmd.commands import CommandMessage, PingReply

COMMAND = CommandMessage("c", "ops", "v", {"k": "1"})
REPLY = PingReply("c", "fd", 7)


class RecordingEndpoint:
    def __init__(self, is_open=True, raises=False):
        self.open = is_open
        self.raises = raises
        self.sent = []

    def send(self, raw):
        if self.raises:
            raise ChannelClosedError("closed under the sender")
        self.sent.append(raw)


def _behavior(mode=None):
    process = SimpleNamespace(kernel=None, name="c", degraded_mode=mode)
    return BusAttachedBehavior(process, network=None)


def _client():
    return BusClient(kernel=None, network=None, name="c")


@pytest.mark.parametrize("make", [_behavior, _client], ids=["behavior", "client"])
def test_a_healthy_sender_puts_the_encoded_message_on_the_wire(make):
    sender = make()
    sender._endpoint = endpoint = RecordingEndpoint()
    assert sender.send(COMMAND) is True
    assert sender.send(REPLY) is True
    assert [str(raw) for raw in endpoint.sent] == [
        '<msg type="command" from="c" to="ops" verb="v"><param name="k">1</param></msg>',
        '<msg type="ping-reply" from="c" to="fd" seq="7"/>',
    ]


@pytest.mark.parametrize("make", [_behavior, _client], ids=["behavior", "client"])
def test_no_endpoint_a_closed_one_or_a_close_under_the_send_return_false(make):
    sender = make()
    assert sender._endpoint is None
    assert sender.send(COMMAND) is False
    sender._endpoint = closed = RecordingEndpoint(is_open=False)
    assert sender.send(COMMAND) is False
    assert closed.sent == []
    sender._endpoint = RecordingEndpoint(raises=True)
    assert sender.send(COMMAND) is False
    assert sender.send(REPLY) is False


def test_a_hung_process_sends_nothing():
    behavior = _behavior("hang")
    behavior._endpoint = endpoint = RecordingEndpoint()
    assert behavior.send(COMMAND) is False
    assert behavior.send(REPLY) is False
    assert endpoint.sent == []


def test_a_zombie_sends_only_ping_replies():
    behavior = _behavior("zombie")
    behavior._endpoint = endpoint = RecordingEndpoint()
    assert behavior.send(COMMAND) is False
    assert behavior.send(REPLY) is True
    assert [str(raw) for raw in endpoint.sent] == [
        '<msg type="ping-reply" from="c" to="fd" seq="7"/>'
    ]
