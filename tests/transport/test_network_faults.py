"""Tests for the per-link network fault fabric (drops, spikes, partitions)."""

import pytest

from repro.errors import ConnectionRefusedError_
from repro.sim.kernel import Kernel
from repro.transport.network import (
    LinkProfile,
    Network,
    NetworkFaultModel,
    link_key,
)


@pytest.fixture
def faults(kernel):
    return NetworkFaultModel(kernel)


def drain(kernel, faults, a="fd", b="mbus", n=400):
    """Plan ``n`` messages on one link; returns (delivered, outcomes)."""
    outcomes = [faults.plan(a, b) for _ in range(n)]
    return [o for o in outcomes if o is not None], outcomes


# ----------------------------------------------------------------------
# link keys and profiles
# ----------------------------------------------------------------------

def test_link_key_strips_ports_and_orders():
    assert link_key("mbus:7000", "fd") == ("fd", "mbus")
    assert link_key("fd", "mbus") == link_key("mbus", "fd")


@pytest.mark.parametrize("kwargs", [
    {"drop_probability": -0.1},
    {"drop_probability": 1.5},
    {"spike_probability": 2.0},
    {"duplicate_probability": -1.0},
    {"spike_seconds": (-0.1, 0.2)},
    {"spike_seconds": (0.3, 0.1)},
    {"duplicate_lag": -0.5},
])
def test_link_profile_validation(kwargs):
    with pytest.raises(ValueError):
        LinkProfile(**kwargs)


# ----------------------------------------------------------------------
# inertness: a wired-but-unconfigured fabric perturbs nothing
# ----------------------------------------------------------------------

def test_inert_by_default(kernel, faults):
    assert not faults.active
    delivered, outcomes = drain(kernel, faults)
    assert all(o == (0.0,) for o in outcomes)
    # No named stream was ever drawn: the kernel's stream ledger stays clean.
    assert faults.messages_dropped == 0


def test_inactive_profile_counts_as_inert(kernel, faults):
    faults.degrade("fd", "mbus")  # all probabilities zero
    delivered, outcomes = drain(kernel, faults)
    assert all(o == (0.0,) for o in outcomes)


# ----------------------------------------------------------------------
# drops, spikes, duplicates
# ----------------------------------------------------------------------

def test_drop_probability_loses_messages(kernel, faults):
    faults.degrade("fd", "mbus", drop=0.5)
    delivered, outcomes = drain(kernel, faults)
    assert faults.messages_dropped == len(outcomes) - len(delivered)
    assert 0.3 < len(delivered) / len(outcomes) < 0.7


def test_spikes_add_bounded_delay(kernel, faults):
    faults.degrade("fd", "mbus", spike_probability=1.0, spike_seconds=(0.1, 0.2))
    delivered, _ = drain(kernel, faults, n=100)
    assert all(0.1 <= extras[0] <= 0.2 for extras in delivered)
    assert faults.messages_spiked == 100


def test_duplicates_deliver_two_copies_second_trailing(kernel, faults):
    faults.degrade("fd", "mbus", duplicate_probability=1.0)
    delivered, _ = drain(kernel, faults, n=50)
    assert all(len(extras) == 2 for extras in delivered)
    assert all(extras[1] >= extras[0] for extras in delivered)
    assert faults.messages_duplicated == 50


def test_named_degrade_only_hits_that_link(kernel, faults):
    faults.degrade("fd", "mbus", drop=1.0)
    assert faults.plan("fd", "mbus:7000") is None  # port stripped, still hit
    assert faults.plan("fd", "rtu") == (0.0,)


def test_wildcard_degrade_hits_every_link(kernel, faults):
    faults.degrade(drop=1.0)
    assert faults.plan("fd", "mbus") is None
    assert faults.plan("ses", "str") is None


# ----------------------------------------------------------------------
# per-link streams: fault decisions on one link never perturb another
# ----------------------------------------------------------------------

def test_per_link_streams_are_independent():
    def pattern(extra_link_traffic):
        kernel = Kernel(seed=99)
        faults = NetworkFaultModel(kernel)
        faults.degrade(drop=0.5)
        if extra_link_traffic:
            for _ in range(37):
                faults.plan("ses", "str")
        return [faults.plan("fd", "mbus") is None for _ in range(100)]

    assert pattern(False) == pattern(True)


def test_same_seed_replays_bit_identically():
    def run():
        kernel = Kernel(seed=7)
        faults = NetworkFaultModel(kernel)
        faults.degrade(drop=0.3, spike_probability=0.4, duplicate_probability=0.2)
        return [faults.plan("fd", "mbus") for _ in range(200)]

    assert run() == run()


# ----------------------------------------------------------------------
# partitions
# ----------------------------------------------------------------------

def test_partition_blocks_both_directions_then_heals(kernel, faults):
    faults.partition("fd", "mbus", 10.0)
    assert faults.is_partitioned("fd", "mbus")
    assert faults.plan("fd", "mbus") is None
    assert faults.plan("mbus", "fd") is None
    assert faults.partition_blocked == 2
    kernel.run(until=kernel.now + 10.5)
    assert not faults.is_partitioned("fd", "mbus")
    assert faults.plan("fd", "mbus") == (0.0,)


def test_partition_requires_positive_duration(faults):
    with pytest.raises(ValueError):
        faults.partition("fd", "mbus", 0.0)


def test_partition_refuses_new_connections(kernel):
    faults = NetworkFaultModel(kernel)
    network = Network(kernel, faults=faults)
    network.listen("mbus:7000", lambda e: None)
    faults.partition("fd", "mbus", 5.0)
    with pytest.raises(ConnectionRefusedError_, match="partitioned"):
        network.connect("fd", "mbus:7000")
    assert faults.connects_refused == 1
    kernel.run(until=kernel.now + 6.0)
    network.connect("fd", "mbus:7000")  # heals


def test_manual_heal_ends_partition_early(kernel, faults):
    faults.partition("fd", "mbus", 100.0)
    faults.heal("fd", "mbus")
    assert faults.plan("fd", "mbus") == (0.0,)


def test_repartition_supersedes_pending_heal(kernel, faults):
    faults.partition("fd", "mbus", 5.0)
    kernel.run(until=kernel.now + 4.0)
    faults.partition("fd", "mbus", 50.0)  # extend before the first heals
    kernel.run(until=kernel.now + 2.0)  # the first auto-heal fires here — must be a no-op
    assert faults.is_partitioned("fd", "mbus")


# ----------------------------------------------------------------------
# restore / clear / epoch guards
# ----------------------------------------------------------------------

def test_timed_degrade_auto_restores(kernel, faults):
    faults.degrade("fd", "mbus", duration=5.0, drop=1.0)
    assert faults.plan("fd", "mbus") is None
    kernel.run(until=kernel.now + 5.5)
    assert faults.plan("fd", "mbus") == (0.0,)


def test_redegrade_supersedes_pending_restore(kernel, faults):
    faults.degrade("fd", "mbus", duration=5.0, drop=1.0)
    kernel.run(until=kernel.now + 4.0)
    faults.degrade("fd", "mbus", drop=1.0)  # permanent, supersedes
    kernel.run(until=kernel.now + 2.0)  # the first auto-restore fires here — must no-op
    assert faults.plan("fd", "mbus") is None


def test_clear_restores_everything(kernel, faults):
    faults.degrade(drop=1.0)
    faults.degrade("fd", "mbus", drop=1.0)
    faults.partition("ses", "str", 100.0)
    faults.clear()
    assert not faults.active
    assert faults.plan("fd", "mbus") == (0.0,)
    assert faults.plan("ses", "str") == (0.0,)


# ----------------------------------------------------------------------
# exemption: links off the faulted fabric (FD <-> REC host-local IPC)
# ----------------------------------------------------------------------

def test_exempt_link_shielded_from_default_profile(kernel, faults):
    faults.exempt_link("fd", "rec")
    faults.degrade(drop=1.0)
    assert faults.plan("fd", "rec") == (0.0,)
    assert faults.plan("rec", "fd") == (0.0,)
    assert faults.plan("fd", "mbus") is None  # others still faulted


def test_named_degrade_overrides_exemption(kernel, faults):
    faults.exempt_link("fd", "rec")
    faults.degrade("fd", "rec", drop=1.0)
    assert faults.plan("fd", "rec") is None


def test_partition_ignores_exemption(kernel, faults):
    faults.exempt_link("fd", "rec")
    faults.partition("fd", "rec", 10.0)
    assert faults.plan("fd", "rec") is None
