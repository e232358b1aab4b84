"""Tests for the standalone BusClient (connect, reconnect, messaging)."""

import pytest

from repro.bus.client import BusClient
from repro.bus.broker import BusBroker
from repro.errors import NotConnectedError
from repro.experiments.snapshot import fork
from repro.procmgr.process import ProcessSpec, constant_work
from repro.xmlcmd.commands import CommandMessage, PingReply, PingRequest


def start_bus(kernel, network, manager):
    manager.spawn(
        ProcessSpec("mbus", constant_work(0.5), lambda p: BusBroker(p, network, "mbus:7000"))
    )
    manager.start("mbus")
    kernel.run()


def test_connect_success(kernel, network, manager):
    start_bus(kernel, network, manager)
    client = BusClient(kernel, network, "ops")
    assert client.connect()
    assert client.connected


def test_connect_fails_when_bus_down(kernel, network):
    client = BusClient(kernel, network, "ops", auto_reconnect=False)
    assert not client.connect()
    assert not client.connected


def test_send_when_disconnected_returns_false(kernel, network):
    client = BusClient(kernel, network, "ops", auto_reconnect=False)
    assert client.send(PingRequest("ops", "x", 1)) is False


def test_two_clients_exchange_messages(kernel, network, manager):
    start_bus(kernel, network, manager)
    a = BusClient(kernel, network, "a")
    b = BusClient(kernel, network, "b")
    a.connect()
    b.connect()
    kernel.run()
    a.send(CommandMessage(sender="a", target="b", verb="hi"))
    kernel.run()
    assert len(b.received) == 1
    assert b.received[0].verb == "hi"


def test_handler_callbacks_invoked(kernel, network, manager):
    start_bus(kernel, network, manager)
    a = BusClient(kernel, network, "a")
    b = BusClient(kernel, network, "b")
    a.connect()
    b.connect()
    seen = []
    b.on_message(seen.append)
    kernel.run()
    a.send(CommandMessage(sender="a", target="b", verb="hi"))
    kernel.run()
    assert len(seen) == 1


def test_auto_reconnect_after_bus_bounce(kernel, network, manager):
    start_bus(kernel, network, manager)
    client = BusClient(kernel, network, "ops")
    client.connect()
    kernel.run()
    manager.fail("mbus")
    manager.restart(["mbus"])
    kernel.run(until=kernel.now + 3.0)
    assert client.connected
    client.send(PingRequest("ops", "mbus", 9))
    kernel.run(until=kernel.now + 1.0)
    assert PingReply(sender="mbus", target="ops", seq=9) in client.received


def test_retry_until_bus_appears(kernel, network, manager):
    client = BusClient(kernel, network, "ops", reconnect_interval=0.25)
    client.connect()  # bus not up yet; schedules retries
    manager.spawn(
        ProcessSpec("mbus", constant_work(0.5), lambda p: BusBroker(p, network, "mbus:7000"))
    )
    kernel.schedule_after(2.0, manager.start, "mbus")
    kernel.run(until=5.0)
    assert client.connected


def test_closed_client_refuses_connect(kernel, network, manager):
    start_bus(kernel, network, manager)
    client = BusClient(kernel, network, "ops")
    client.connect()
    client.close()
    with pytest.raises(NotConnectedError):
        client.connect()


def test_closed_client_does_not_reconnect(kernel, network, manager):
    start_bus(kernel, network, manager)
    client = BusClient(kernel, network, "ops")
    client.connect()
    kernel.run()
    client.close()
    manager.fail("mbus")
    manager.restart(["mbus"])
    kernel.run(until=kernel.now + 3.0)
    assert not client.connected


def test_forked_client_reconnects_on_its_own_copy(kernel, network):
    """A parked redial must survive the snapshot fork:
    held as a closure it kept pointing at the *template's* client, so the
    copy never reconnected and the copy's kernel mutated the original."""
    client = BusClient(kernel, network, "ops")
    assert not client.connect()  # refused: the redial is parked
    fork_kernel, fork_network, fork_client = fork((kernel, network, client))
    accepted = []
    fork_network.listen("mbus:7000", accepted.append)
    fork_kernel.run(until=1.0)
    assert fork_client.connected
    assert len(accepted) == 1
    # The template is untouched: still waiting on its own, unredeemed, ticket.
    assert not client.connected
    assert client._reconnect_pending
    assert kernel.now == 0.0 and kernel.pending_events == 0
    assert network.dials_parked == 1 and fork_network.dials_parked == 0
