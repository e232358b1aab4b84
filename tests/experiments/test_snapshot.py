"""Warmed-station snapshot/fork: bit-identity and cache semantics.

The campaign runner's per-cell setup cost is amortised by booting one
*template* station per scenario shape and deep-copying it per cell.  The
load-bearing contract is bit-identity: a cell measured on a restored
snapshot must produce byte-for-byte the same results as one measured on a
fresh boot, because both share the campaign result cache (the snapshot
mode is deliberately *not* part of the cache key).  These tests run every
experiment family both ways and compare exact outputs, and pin down the
template-cache behaviours the contract rests on.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.experiments.availability import measure_availability
from repro.experiments.recovery import measure_recovery
from repro.experiments.lifetimes import measure_lifetimes
from repro.experiments.snapshot import (
    boot_seed,
    clear_templates,
    station_shape,
    template_count,
    warm_template,
    warmed_station,
)
from repro.chaos.engine import run_chaos
from repro.experiments.fleet import DigestSink
from repro.experiments.template_store import SharedTemplateStore
from repro.mercury.config import PAPER_CONFIG
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_i, tree_ii, tree_iv, tree_v


@pytest.fixture(autouse=True)
def _fresh_template_cache():
    clear_templates()
    yield
    clear_templates()


# ----------------------------------------------------------------------
# bit-identity: snapshot restore == fresh boot, per experiment family
# ----------------------------------------------------------------------


def test_recovery_identical_with_and_without_snapshot():
    fresh = measure_recovery(tree_ii(), "rtu", trials=3, seed=9, snapshot=False)
    assert template_count() == 0  # fresh boot: nothing cached
    restored = measure_recovery(tree_ii(), "rtu", trials=3, seed=9, snapshot=True)
    assert restored.samples == fresh.samples
    assert restored.phases == fresh.phases


def test_recovery_second_cell_reuses_template():
    measure_recovery(tree_ii(), "rtu", trials=1, seed=1, snapshot=True)
    assert template_count() == 1
    measure_recovery(tree_ii(), "rtu", trials=1, seed=2, snapshot=True)
    assert template_count() == 1  # same shape: no second boot
    fresh = measure_recovery(tree_ii(), "rtu", trials=1, seed=2, snapshot=False)
    restored = measure_recovery(tree_ii(), "rtu", trials=1, seed=2, snapshot=True)
    assert restored.samples == fresh.samples


def test_availability_identical_with_and_without_snapshot():
    kwargs = dict(horizon_s=2.0 * 3600.0, seed=5)
    fresh = measure_availability(tree_i(), snapshot=False, **kwargs)
    restored = measure_availability(tree_i(), snapshot=True, **kwargs)
    assert dataclasses.asdict(restored) == dataclasses.asdict(fresh)


def test_lifetimes_identical_with_and_without_snapshot():
    kwargs = dict(horizon_s=2.0 * 3600.0, seed=3)
    fresh = measure_lifetimes(tree_v(), snapshot=False, **kwargs)
    restored = measure_lifetimes(tree_v(), snapshot=True, **kwargs)
    assert dataclasses.asdict(restored) == dataclasses.asdict(fresh)


def test_lifetimes_one_template_serves_both_correlation_settings():
    measure_lifetimes(tree_v(), horizon_s=1800.0, seed=3, correlations=False, snapshot=True)
    measure_lifetimes(tree_v(), horizon_s=1800.0, seed=3, correlations=True, snapshot=True)
    assert template_count() == 1  # flags are flipped post-restore, not in the shape


def test_chaos_identical_with_and_without_snapshot():
    fresh = run_chaos(tree_v(), "storm", trials=1, seed=77, snapshot=False)
    restored = run_chaos(tree_v(), "storm", trials=1, seed=77, snapshot=True)
    assert restored.to_payload() == fresh.to_payload()


def test_different_seeds_still_differ_under_snapshot():
    """The rebase is real: forked cells are not clones of each other."""
    a = measure_availability(tree_i(), horizon_s=4.0 * 3600.0, seed=1, snapshot=True)
    b = measure_availability(tree_i(), horizon_s=4.0 * 3600.0, seed=2, snapshot=True)
    assert dataclasses.asdict(a) != dataclasses.asdict(b)


# ----------------------------------------------------------------------
# shape and cache mechanics
# ----------------------------------------------------------------------


def test_shape_distinguishes_kind_tree_config_and_params():
    base = station_shape("recovery", tree_ii(), PAPER_CONFIG, oracle="perfect")
    assert station_shape("recovery", tree_ii(), PAPER_CONFIG, oracle="perfect") == base
    assert station_shape("chaos", tree_ii(), PAPER_CONFIG, oracle="perfect") != base
    assert station_shape("recovery", tree_v(), PAPER_CONFIG, oracle="perfect") != base
    assert (
        station_shape("recovery", tree_ii(), PAPER_CONFIG, oracle="guessing") != base
    )
    other_config = PAPER_CONFIG.with_overrides(ping_period=2.0)
    assert station_shape("recovery", tree_ii(), other_config, oracle="perfect") != base


def test_boot_seed_is_shape_derived_and_stable():
    shape = station_shape("recovery", tree_ii(), PAPER_CONFIG)
    assert boot_seed(shape) == boot_seed(shape)
    assert boot_seed(shape) != boot_seed(station_shape("chaos", tree_ii(), PAPER_CONFIG))


def test_fresh_mode_boots_under_the_same_snapshot_seed():
    """Bit-identity is seed-identity: fresh mode re-executes the template's
    deterministic boot rather than booting under the cell seed, so both
    modes reach the same warmed state before the rebase."""
    shape = station_shape("unit", tree_ii(), PAPER_CONFIG)
    seen = []

    def build(seed: int) -> MercuryStation:
        seen.append(seed)
        return MercuryStation(tree=tree_ii(), config=PAPER_CONFIG, seed=seed)

    warmed_station(shape, build, MercuryStation.boot, 1234, snapshot=False)
    warmed_station(shape, build, MercuryStation.boot, 1234, snapshot=True)
    assert seen == [boot_seed(shape), boot_seed(shape)]


def test_restored_station_is_rebased_onto_cell_seed():
    shape = station_shape("unit2", tree_ii(), PAPER_CONFIG)

    def build(seed: int) -> MercuryStation:
        return MercuryStation(tree=tree_ii(), config=PAPER_CONFIG, seed=seed)

    a = warmed_station(shape, build, MercuryStation.boot, 1, snapshot=True)
    b = warmed_station(shape, build, MercuryStation.boot, 2, snapshot=True)
    assert a is not b
    draw_a = a.kernel.rngs.stream("unit-test").random()
    draw_b = b.kernel.rngs.stream("unit-test").random()
    assert draw_a != draw_b  # different cell seeds -> different streams


# ----------------------------------------------------------------------
# channel numbering: per station, carried through a restore
# ----------------------------------------------------------------------


def _bus_channel_reprs(station: MercuryStation) -> dict:
    """``repr`` of every component's bus channel — the text a
    ``ChannelClosedError`` about it would carry."""
    return {
        process.name: repr(process.behavior._endpoint._channel)
        for process in station.manager.processes()
        if getattr(process.behavior, "_endpoint", None) is not None
    }


def test_two_stations_from_one_seed_number_their_channels_alike():
    """Channel ids used to come from a process-global counter, so the
    second station's error texts depended on the first having been built."""
    first = MercuryStation(tree=tree_ii(), config=PAPER_CONFIG, seed=5)
    first.boot()
    second = MercuryStation(tree=tree_ii(), config=PAPER_CONFIG, seed=5)
    second.boot()
    reprs = _bus_channel_reprs(first)
    assert len(reprs) >= 5
    assert reprs == _bus_channel_reprs(second)
    assert repr(first.fd._ctl._channel) == repr(second.fd._ctl._channel)


def test_restored_station_continues_its_templates_channel_numbering():
    shape = station_shape("unit3", tree_ii(), PAPER_CONFIG)

    def build(seed: int) -> MercuryStation:
        return MercuryStation(tree=tree_ii(), config=PAPER_CONFIG, seed=seed)

    template = warm_template(shape, build, MercuryStation.boot)
    established = template.network.connections_established
    restored = warmed_station(shape, build, MercuryStation.boot, 1, snapshot=True)
    assert _bus_channel_reprs(restored) == _bus_channel_reprs(template)
    ops = restored.network.connect("ops", "mbus:7000")
    assert ops._channel.id == established + 1
    # ... and on its own count: the template's did not move.
    assert template.network.connections_established == established


# ----------------------------------------------------------------------
# parked dials: a ticket held by the network belongs to the copy
# ----------------------------------------------------------------------


def _build_iv(seed: int) -> MercuryStation:
    return MercuryStation(
        tree=tree_iv(), config=PAPER_CONFIG, seed=seed, trace_capacity=50_000
    )


def _warm_into_radio_outage(station: MercuryStation) -> None:
    """Boot, fell ``fedr`` and ``pbcom`` together, and stop once ``fedr``
    is back and its dial to the still-negotiating ``pbcom`` is parked."""
    station.boot()
    station.injector.inject_joint("pbcom", {"fedr", "pbcom"}, kind="joint")
    deadline = station.kernel.now + 60.0
    while not station.network.dials_parked:
        assert station.kernel.now < deadline
        station.run_for(0.1)
    fedr = station.manager.get("fedr").behavior
    assert fedr._pbcom_pending and not fedr.pbcom_connected
    assert not station.network.is_bound("pbcom:9000")


def _drive(station: MercuryStation, seconds: float = 60.0) -> dict:
    digest = DigestSink()
    station.kernel.trace.add_sink(digest)
    station.run_for(seconds)
    return {
        "now": station.kernel.now,
        "events": station.kernel.events_executed,
        "digest": digest.hexdigest(),
        "records": digest.records,
        "connections": station.network.connections_established,
    }


def _store_round_trip(station: MercuryStation) -> MercuryStation:
    store = SharedTemplateStore()
    store.publish("mid-outage", station)
    return store.fetch("mid-outage")


@pytest.mark.parametrize(
    "clone",
    [copy.deepcopy, _store_round_trip]
    + [
        pytest.param(
            lambda station, protocol=protocol: pickle.loads(
                pickle.dumps(station, protocol=protocol)
            ),
            id=f"pickle-{protocol}",
        )
        for protocol in (2, 3, 4, 5)
    ],
)
def test_copy_of_a_station_with_a_parked_dial_connects_its_own_fedr(clone):
    station = _build_iv(5)
    _warm_into_radio_outage(station)
    before = (
        station.kernel.now,
        station.kernel.events_executed,
        station.kernel.pending_events,
        station.network.dials_parked,
        station.network.connections_established,
    )
    fork = clone(station)
    assert fork.network.dials_parked == station.network.dials_parked
    _drive(fork)
    fork_fedr = fork.manager.get("fedr").behavior
    assert fork_fedr.pbcom_connected and fork.network.dials_parked == 0
    assert fork_fedr.network is fork.network and fork_fedr.kernel is fork.kernel
    # The original saw none of it: same clock, same queue, same ticket.
    assert before == (
        station.kernel.now,
        station.kernel.events_executed,
        station.kernel.pending_events,
        station.network.dials_parked,
        station.network.connections_established,
    )
    assert not station.manager.get("fedr").behavior.pbcom_connected
    # ... and still redeems it for itself, exactly as its copy did.
    assert _drive(station)["connections"] == fork.network.connections_established
    assert station.manager.get("fedr").behavior.pbcom_connected


def test_fork_taken_mid_outage_equals_a_fresh_boot_driven_there():
    shape = station_shape("parked-dial", tree_iv(), PAPER_CONFIG)
    fresh = _drive(
        warmed_station(shape, _build_iv, _warm_into_radio_outage, 9, snapshot=False)
    )
    forked = _drive(
        warmed_station(shape, _build_iv, _warm_into_radio_outage, 9, snapshot=True)
    )
    assert template_count() == 1
    assert fresh["records"] > 0 and fresh == forked
