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

import dataclasses

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
from repro.mercury.config import PAPER_CONFIG
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_i, tree_ii, tree_v


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
