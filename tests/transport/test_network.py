"""Tests for the simulated network: listeners, connect, latency."""

import pytest

from repro.errors import AddressInUseError, ConnectionRefusedError_
from repro.transport.network import LatencyModel


def test_connect_requires_listener(kernel, network):
    with pytest.raises(ConnectionRefusedError_):
        network.connect("client", "nowhere:1")


def test_listen_and_connect(kernel, network):
    accepted = []
    network.listen("srv:1", accepted.append)
    endpoint = network.connect("client", "srv:1")
    assert len(accepted) == 1
    assert endpoint.peer is accepted[0]
    assert network.connections_established == 1


def test_duplicate_bind_rejected(kernel, network):
    network.listen("srv:1", lambda e: None)
    with pytest.raises(AddressInUseError):
        network.listen("srv:1", lambda e: None)


def test_closed_listener_refuses(kernel, network):
    listener = network.listen("srv:1", lambda e: None)
    listener.close()
    with pytest.raises(ConnectionRefusedError_):
        network.connect("client", "srv:1")
    assert not network.is_bound("srv:1")


def test_rebind_after_close(kernel, network):
    network.listen("srv:1", lambda e: None).close()
    network.listen("srv:1", lambda e: None)  # no AddressInUseError
    assert network.is_bound("srv:1")


def test_listener_counts_accepts(kernel, network):
    listener = network.listen("srv:1", lambda e: None)
    for _ in range(3):
        network.connect("c", "srv:1")
    assert listener.accepted == 3


def test_latency_model_bounds():
    import random

    model = LatencyModel(base=0.001, jitter=0.002)
    rng = random.Random(1)
    samples = [model.sample(rng) for _ in range(200)]
    assert all(0.001 <= s <= 0.003 for s in samples)
    assert len(set(samples)) > 50


def test_latency_zero_jitter_is_constant():
    import random

    model = LatencyModel(base=0.005, jitter=0.0)
    rng = random.Random(1)
    state = rng.getstate()
    assert model.sample(rng) == 0.005
    assert rng.getstate() == state  # no draw


def test_latency_negative_rejected():
    with pytest.raises(ValueError):
        LatencyModel(base=-1.0)
