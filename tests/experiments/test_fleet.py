"""Fleet campaigns: bit-identity, drain, session accounting, cache purity.

The sim-layer gate (``tests/sim/test_fleet_kernel.py``) proves the
epoch-barrier machinery is layout-independent with toy shells; this suite
holds the same gate for *real Mercury stations* — full fault injectors,
supervisors, and network fabrics — and pins the experiment semantics on
top: waves really correlate failures across stations, the post-horizon
drain leaves invariants clean, session-loss accounting follows the
link-break rule, and the campaign cache ignores the execution layout.
"""

import multiprocessing

import pytest

from repro.experiments import fleet as fleet_cells
from repro.experiments.fleet import (
    FleetResult,
    FleetSpec,
    resolve_wave_component,
    run_fleet_cell,
    station_seed,
)
from repro.errors import ExperimentError
from repro.experiments.runner import run_suite
from repro.experiments.snapshot import clear_templates
from repro.sim import fleet as fleet_kernel


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_templates()
    yield
    clear_templates()


SMALL = FleetSpec(
    tree="V",
    size=4,
    horizon_s=120.0,
    seed=21,
    drain_s=60.0,
    wave_interval_s=60.0,
    wave_drop=0.3,
    groups=2,
)


def _payload(spec, **kwargs):
    return run_fleet_cell(spec, **kwargs).to_payload()


# ----------------------------------------------------------------------
# bit-identity with real stations
# ----------------------------------------------------------------------


def test_shard_count_cannot_change_a_fleet_result():
    one = _payload(SMALL, shards=1)
    assert _payload(SMALL, shards=2) == one
    assert _payload(SMALL, shards=4) == one


def test_process_fanout_cannot_change_a_fleet_result(monkeypatch):
    serial = _payload(SMALL, shards=2, jobs=1)
    fanned = _payload(SMALL, shards=2, jobs=2)
    assert fanned == serial
    # Spawned workers inherit no template: each boots its own under the
    # shape's boot seed and must still match the serial run.
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(fleet_kernel.mp, "get_context", lambda *args: spawn)
    spawned = _payload(SMALL, shards=2, jobs=2)
    assert spawned == serial


def test_snapshot_mode_cannot_change_a_fleet_result():
    restored = _payload(SMALL, shards=1)
    clear_templates()
    fresh = _payload(SMALL, shards=1, snapshot=False)
    assert fresh == restored


@pytest.mark.parametrize("shards", [1, 3])
def test_a_fleet_computes_its_station_shape_once_per_factory_call(shards, monkeypatch):
    calls = []
    shape = fleet_cells._fleet_shape

    def counted(spec, config):
        calls.append(spec)
        return shape(spec, config)

    monkeypatch.setattr(fleet_cells, "_fleet_shape", counted)
    spec = FleetSpec(tree="V", size=6, horizon_s=5.0, drain_s=0.0, seed=3)
    run_fleet_cell(spec, shards=shards)
    # One for the parent's template, one per shard the factory builds.
    assert len(calls) == 1 + shards


# ----------------------------------------------------------------------
# experiment semantics
# ----------------------------------------------------------------------


def test_waves_correlate_failures_and_drain_keeps_invariants_clean():
    result = run_fleet_cell(SMALL, shards=2)
    assert result.ok, result.violations
    ground = result.ground
    assert ground["waves"] >= 1
    assert ground["reports"] >= 1  # stations reported cures back
    directives = sum(s["directives"] for s in result.stations)
    assert directives >= ground["waves"]  # every wave reached its group
    assert result.availability < 1.0  # failures really happened
    assert result.events_executed > 0


def test_independent_baseline_runs_clean_without_waves():
    spec = FleetSpec(tree="V", size=3, horizon_s=120.0, seed=5, drain_s=60.0)
    result = run_fleet_cell(spec)
    assert result.ok
    assert result.ground["waves"] == 0
    assert all(s["directives"] == 0 for s in result.stations)


def test_wave_component_resolution():
    assert resolve_wave_component(SMALL, ("fedr", "fedrcom", "ses")) == "fedrcom"
    assert resolve_wave_component(SMALL, ("fedr", "ses")) == "fedr"
    pinned = FleetSpec(wave_component="ses")
    assert resolve_wave_component(pinned, ("fedr", "ses")) == "ses"


def test_station_seeds_are_pure_and_distinct():
    seeds = [station_seed(21, i) for i in range(16)]
    assert len(set(seeds)) == 16
    assert seeds == [station_seed(21, i) for i in range(16)]
    assert station_seed(22, 0) != station_seed(21, 0)


def test_fleet_size_must_be_positive():
    from repro.errors import ExperimentError

    with pytest.raises(ExperimentError, match="fleet size"):
        run_fleet_cell(FleetSpec(size=0))


# ----------------------------------------------------------------------
# result payloads
# ----------------------------------------------------------------------


def test_fleet_result_round_trips_through_payload():
    result = run_fleet_cell(SMALL, shards=2)
    clone = FleetResult.from_payload(result.to_payload())
    assert clone.to_payload() == result.to_payload()
    assert clone.availability == result.availability
    assert clone.mttr_samples == result.mttr_samples
    assert clone.sessions_lost == result.sessions_lost
    assert clone.ok == result.ok


def test_aggregates_on_an_empty_fleet_are_well_defined():
    empty = FleetResult(tree_name="V", size=0, horizon_s=0.0, wave_interval_s=0.0)
    assert empty.availability == 1.0
    assert empty.mean_mttr is None
    assert empty.sessions_lost == 0 and empty.outages == 0
    assert empty.ok


# ----------------------------------------------------------------------
# the execution layout stays out of result identity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("shards", [0, -1])
def test_layout_arguments_are_checked(shards):
    with pytest.raises(ExperimentError, match=f"shards={shards}"):
        run_suite("fleet", {"fleet_size": [2]}, tree="V", horizon_s=30.0, shards=shards)


def test_campaign_cache_key_ignores_shard_and_job_knobs(tmp_path, monkeypatch):
    """A campaign laid out over shards and in-cell workers writes the cache
    entries an unsharded one reads: the layout never enters a cell."""
    kwargs = dict(
        axes={"wave_interval_s": (0.0, 60.0)},
        tree="V",
        fleet_size=4,
        horizon_s=60.0,
        wave_drop=0.3,
        seed=21,
        cache_dir=str(tmp_path),
    )
    sharded = run_suite("fleet", shards=2, jobs=2, **kwargs)
    assert len(list(tmp_path.iterdir())) == 2

    def no_run(*_):
        raise AssertionError("a cached cell ran again")

    monkeypatch.setattr("repro.experiments.runner.execute_cell", no_run)
    replay = run_suite("fleet", **kwargs)
    for key in sharded:
        assert replay[key].to_payload() == sharded[key].to_payload()


def test_fleet_campaign_caches_and_replays_byte_identically(tmp_path):
    kwargs = dict(
        axes={"fleet_size": [2, 3], "wave_interval_s": (0.0, 60.0)},
        tree="V",
        horizon_s=120.0,
        seed=9,
        cache_dir=str(tmp_path),
    )
    first = run_suite("fleet", **kwargs)
    assert set(first) == {(2, 0.0), (2, 60.0), (3, 0.0), (3, 60.0)}
    replay = run_suite("fleet", **kwargs)
    for key in first:
        assert replay[key].to_payload() == first[key].to_payload()
