"""Tests for channel delivery semantics: FIFO, latency, close behaviour."""

import copy
import pickle

import pytest

from repro.errors import ChannelClosedError
from repro.experiments.snapshot import fork
from repro.sim.kernel import Kernel
from repro.transport.network import Network


def connected_pair(network):
    server_side = []
    network.listen("srv:1", server_side.append)
    client = network.connect("client", "srv:1")
    return client, server_side[0]


def test_messages_arrive_after_latency(kernel, network):
    client, server = connected_pair(network)
    inbox = []
    server.on_message(inbox.append)
    client.send("hello")
    assert inbox == []  # not synchronous
    kernel.run()
    assert inbox == ["hello"]


def test_fifo_order_preserved(kernel, network):
    client, server = connected_pair(network)
    inbox = []
    server.on_message(inbox.append)
    for n in range(50):
        client.send(n)
    kernel.run()
    assert inbox == list(range(50))


def test_bidirectional_traffic(kernel, network):
    client, server = connected_pair(network)
    client_in, server_in = [], []
    client.on_message(client_in.append)
    server.on_message(server_in.append)
    client.send("to-server")
    server.send("to-client")
    kernel.run()
    assert server_in == ["to-server"]
    assert client_in == ["to-client"]


def test_messages_before_handler_are_buffered(kernel, network):
    client, server = connected_pair(network)
    client.send("early")
    kernel.run()
    inbox = []
    server.on_message(inbox.append)
    assert inbox == ["early"]


def test_send_on_closed_channel_raises(kernel, network):
    client, server = connected_pair(network)
    client.close()
    with pytest.raises(ChannelClosedError):
        client.send("x")
    with pytest.raises(ChannelClosedError):
        server.send("y")


def test_close_notifies_peer_not_initiator(kernel, network):
    client, server = connected_pair(network)
    closes = {"client": 0, "server": 0}
    client.on_close(lambda: closes.__setitem__("client", closes["client"] + 1))
    server.on_close(lambda: closes.__setitem__("server", closes["server"] + 1))
    client.close()
    kernel.run()
    assert closes == {"client": 0, "server": 1}


def test_close_is_idempotent(kernel, network):
    client, server = connected_pair(network)
    notified = []
    server.on_close(lambda: notified.append(1))
    client.close()
    client.close()
    server.close()
    kernel.run()
    assert notified == [1]


def test_in_flight_messages_dropped_on_close(kernel, network):
    """SIGKILL severs the connection; bytes in the pipe never arrive."""
    client, server = connected_pair(network)
    inbox = []
    server.on_message(inbox.append)
    client.send("doomed")
    client.close()  # close before the latency-delayed delivery
    kernel.run()
    assert inbox == []


def test_buffered_messages_dropped_on_close(kernel, network):
    """A handler installed after the close must not receive traffic that was
    buffered while no handler was set — closing drops in-flight messages,
    and the pre-handler buffer is in flight from the application's view."""
    client, server = connected_pair(network)
    client.send("early")
    kernel.run()  # delivered into the pre-handler buffer
    client.close()
    kernel.run()
    inbox = []
    server.on_message(inbox.append)
    assert inbox == []


def test_buffered_messages_dropped_on_own_close(kernel, network):
    """Same contract when the buffering side itself initiates the close."""
    client, server = connected_pair(network)
    client.send("early")
    kernel.run()
    server.close()
    inbox = []
    server.on_message(inbox.append)
    assert inbox == []


def test_open_property_tracks_state(kernel, network):
    client, server = connected_pair(network)
    assert client.open and server.open
    server.close()
    assert not client.open and not server.open


def test_message_counters(kernel, network):
    client, server = connected_pair(network)
    server.on_message(lambda m: None)
    for _ in range(3):
        client.send("m")
    kernel.run()
    channel = client._channel
    assert channel.messages_sent == 3
    assert channel.messages_delivered == 3


def test_channels_are_numbered_per_network_not_per_process(kernel, network):
    """``repr(channel)`` — and so every ``ChannelClosedError`` text — must
    not depend on how many channels the process built before."""
    first, _ = connected_pair(network)
    other = Network(Kernel(seed=1234))
    other_first, _ = connected_pair(other)
    assert first._channel.id == other_first._channel.id == 1
    assert repr(first._channel) == repr(other_first._channel)
    other.listen("srv:2", lambda endpoint: None)
    second = other.connect("client", "srv:2")
    assert second._channel.id == other.connections_established == 2
    first.close()
    with pytest.raises(ChannelClosedError, match=r"Channel#1\('client'<->'srv:1', closed\)"):
        first.send("x")


def test_transport_objects_carry_no_instance_dict(kernel, network):
    client, server = connected_pair(network)
    for thing in (client, server, client._channel):
        assert not hasattr(thing, "__dict__")


class _Recorder:
    """A receiver whose handler is a bound *Python* method, so structural
    copies re-bind it (``list.append`` is a builtin: deepcopy shares it)."""

    def __init__(self):
        self.inbox = []

    def receive(self, message):
        self.inbox.append(message)


def _in_flight_world():
    """A connection with one message delivered and one in flight."""
    kernel = Kernel(seed=1234)
    network = Network(kernel)
    client, server = connected_pair(network)
    recorder = _Recorder()
    server.on_message(recorder.receive)
    client.send("first")
    kernel.run()
    client.send("second")
    return kernel, client, server, recorder


def _finish(world):
    """Land the message in flight, close, and report everything observable."""
    kernel, client, server, recorder = world
    kernel.run()
    client.close()
    kernel.run()
    channel = client._channel
    return {
        "inbox": recorder.inbox,
        "open": (client.open, server.open, channel.open),
        "repr": repr(channel),
        "counters": (channel.messages_sent, channel.messages_delivered),
        "clock": (kernel.now, server._last_arrival),
    }


@pytest.mark.parametrize(
    "roundtrip",
    [fork, copy.deepcopy]
    + [lambda world, p=p: pickle.loads(pickle.dumps(world, protocol=p)) for p in (2, 3, 4, 5)],
    ids=["fork", "deepcopy", "pickle2", "pickle3", "pickle4", "pickle5"],
)
def test_slotted_channel_survives_structural_copy(roundtrip):
    """A copy taken with a message in flight runs on exactly as the
    original does, and shares nothing with it."""
    original = _in_flight_world()
    clone = roundtrip(original)
    assert clone[1] is not original[1]
    assert clone[1]._peer is clone[2] and clone[1]._channel is clone[2]._channel
    finished = _finish(clone)
    assert finished["inbox"] == ["first", "second"]
    assert finished["open"] == (False, False, False)
    assert finished["repr"] == "Channel#1('client'<->'srv:1', closed)"
    assert finished["counters"] == (2, 2)
    assert original[3].inbox == ["first"]  # the clone's run touched nothing here
    assert _finish(original) == finished  # same instants too


def test_send_base_arrives_at_the_base_delay_and_draws_nothing(kernel, network):
    client, server = connected_pair(network)
    arrivals = []
    server.on_message(lambda message: arrivals.append((message, kernel.now)))
    stream = kernel.rngs.stream("transport.latency")
    state = stream.getstate()
    kernel.run(until=1.0)
    client.send_base("ping")
    kernel.run()
    assert arrivals == [("ping", 1.0 + network.latency.base)]
    assert stream.getstate() == state  # no latency draw


def test_send_base_keeps_fifo_behind_a_jittered_send(kernel, network):
    """A ping sent after a data message never overtakes it: it is clamped
    to the data message's (later) arrival."""
    client, server = connected_pair(network)
    arrivals = []
    server.on_message(lambda message: arrivals.append((message, kernel.now)))
    client.send("data")
    client.send_base("ping")
    kernel.run()
    assert [message for message, _ in arrivals] == ["data", "ping"]
    assert arrivals[1][1] == arrivals[0][1] >= network.latency.base


def test_send_base_goes_through_the_fault_fabric():
    from repro.transport.network import NetworkFaultModel

    kernel = Kernel(seed=1)
    network = Network(kernel, faults=NetworkFaultModel(kernel))
    client, server = connected_pair(network)
    inbox = []
    server.on_message(inbox.append)
    network.faults.partition("client", "srv", 10.0)
    client.send_base("lost")
    kernel.run(until=5.0)
    assert inbox == [] and network.faults.partition_blocked == 1
