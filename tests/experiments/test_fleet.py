"""Fleet campaigns: bit-identity, drain, session accounting, cache purity.

The sim-layer gate (``tests/sim/test_fleet_kernel.py``) proves the
epoch-barrier machinery is layout-independent with toy shells; this suite
holds the same gate for *real Mercury stations* — full fault injectors,
supervisors, and network fabrics — and pins the experiment semantics on
top: waves really correlate failures across stations, the post-horizon
drain leaves invariants clean, session-loss accounting follows the
link-break rule, and the campaign cache key ignores execution knobs.
"""

import pytest

from repro.experiments.fleet import (
    FleetResult,
    FleetSpec,
    fleet_jobs,
    fleet_shards,
    resolve_wave_component,
    run_fleet_cell,
    station_seed,
)
from repro.experiments.runner import CampaignCell, cache_key, run_suite
from repro.mercury.config import PAPER_CONFIG
from repro.experiments.snapshot import clear_templates
from repro.experiments.template_store import STORE


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_templates()
    STORE.clear()
    yield
    clear_templates()
    STORE.clear()


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


def test_process_fanout_cannot_change_a_fleet_result():
    serial = _payload(SMALL, shards=2, jobs=1)
    fanned = _payload(SMALL, shards=2, jobs=2)
    assert fanned == serial


def test_snapshot_mode_cannot_change_a_fleet_result():
    restored = _payload(SMALL, shards=1)
    clear_templates()
    STORE.clear()
    fresh = _payload(SMALL, shards=1, snapshot=False)
    assert fresh == restored


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
# execution knobs stay out of result identity
# ----------------------------------------------------------------------


def test_env_knobs_parse_defensively(monkeypatch):
    monkeypatch.delenv("REPRO_FLEET_JOBS", raising=False)
    monkeypatch.delenv("REPRO_FLEET_SHARDS", raising=False)
    assert fleet_jobs() == 1 and fleet_shards() == 1
    monkeypatch.setenv("REPRO_FLEET_JOBS", "4")
    monkeypatch.setenv("REPRO_FLEET_SHARDS", "8")
    assert fleet_jobs() == 4 and fleet_shards() == 8
    monkeypatch.setenv("REPRO_FLEET_JOBS", "0")
    assert fleet_jobs() == 1  # floored
    monkeypatch.setenv("REPRO_FLEET_SHARDS", "many")
    assert fleet_shards() == 1  # unparsable: default


def test_campaign_cache_key_ignores_shard_and_job_knobs(monkeypatch):
    cell = CampaignCell(
        kind="fleet",
        tree="V",
        seed=21,
        horizon_s=120.0,
        fleet_size=4,
        wave_interval_s=60.0,
        wave_drop=0.3,
    )
    monkeypatch.delenv("REPRO_FLEET_SHARDS", raising=False)
    monkeypatch.delenv("REPRO_FLEET_JOBS", raising=False)
    base = cache_key(cell, PAPER_CONFIG)
    monkeypatch.setenv("REPRO_FLEET_SHARDS", "8")
    monkeypatch.setenv("REPRO_FLEET_JOBS", "4")
    assert cache_key(cell, PAPER_CONFIG) == base


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
