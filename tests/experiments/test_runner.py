"""Tests for the parallel campaign runner.

The contract under test: campaign results are a pure function of the
campaign spec — independent of worker count, of row composition, and of
whether a result came from a live worker or the on-disk cache.
"""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.errors import ExperimentError, UnknownProcessError
from repro.experiments.recovery import measure_recovery, measure_recovery_row
from repro.experiments.runner import (
    KINDS,
    CampaignCell,
    cache_key,
    campaign_seed,
    config_fingerprint,
    execute_cell,
    kind_of,
    merge_recovery_cells,
    plan_cell,
    plan_recovery_cell,
    run_campaign,
    run_recovery_matrix,
    run_suite,
)
from repro.mercury.config import PAPER_CONFIG
from repro.mercury.trees import tree_ii

TRIALS = 3  # tiny: these tests exercise plumbing, not statistics


def row_samples(results):
    return [(r.component, r.samples) for r in results]


# ----------------------------------------------------------------------
# determinism and seeding
# ----------------------------------------------------------------------


def test_parallel_row_bit_identical_to_serial():
    serial = measure_recovery_row(
        tree_ii(), ["rtu", "mbus"], trials=TRIALS, seed=66, jobs=1
    )
    parallel = measure_recovery_row(
        tree_ii(), ["rtu", "mbus"], trials=TRIALS, seed=66, jobs=4
    )
    assert row_samples(serial) == row_samples(parallel)


def test_row_composition_does_not_perturb_cells():
    """Adding a component must leave every other cell's stream untouched."""
    narrow = measure_recovery_row(tree_ii(), ["rtu"], trials=TRIALS, seed=66)
    wide = measure_recovery_row(
        tree_ii(), ["ses", "rtu", "mbus"], trials=TRIALS, seed=66
    )
    by_component = {r.component: r for r in wide}
    assert by_component["rtu"].samples == narrow[0].samples


def test_row_matches_direct_measure_recovery_with_derived_seed():
    """The row helper is exactly measure_recovery at the derived seed."""
    row = measure_recovery_row(tree_ii(), ["rtu"], trials=TRIALS, seed=66)
    derived = campaign_seed(66, "II", "perfect", "rtu", "-", 0)
    direct = measure_recovery(tree_ii(), "rtu", trials=TRIALS, seed=derived)
    assert row[0].samples == direct.samples


def test_campaign_seed_is_stable_and_distinct():
    assert campaign_seed(1, "II", "rtu") == campaign_seed(1, "II", "rtu")
    assert campaign_seed(1, "II", "rtu") != campaign_seed(1, "II", "mbus")
    assert campaign_seed(1, "II", "rtu") != campaign_seed(2, "II", "rtu")


def test_sharded_cell_merges_in_shard_order():
    cells = plan_recovery_cell("II", "rtu", 5, seed=7, shard_size=2)
    assert [c.trials for c in cells] == [2, 2, 1]
    assert len({c.seed for c in cells}) == 3
    payloads = run_campaign(cells)
    merged = merge_recovery_cells(cells, payloads)
    assert len(merged.samples) == 5
    # Shard decomposition is part of the spec: re-planning reproduces it.
    again = merge_recovery_cells(cells, run_campaign(cells))
    assert merged.samples == again.samples


def test_matrix_skips_components_missing_from_tree():
    matrix = run_recovery_matrix(
        [("I", "perfect")], ["mbus", "fedr"], trials=1, seed=5
    )
    assert ("I", "perfect", "mbus") in matrix
    assert ("I", "perfect", "fedr") not in matrix  # tree I has no fedr


def test_availability_suite_parallel_identical_to_serial():
    axes = {"tree": ["I", "V"]}
    serial = run_suite("availability", axes, horizon_s=1800.0, seed=4, jobs=1)
    parallel = run_suite("availability", axes, horizon_s=1800.0, seed=4, jobs=2)
    assert {k: v.availability for k, v in serial.items()} == {
        k: v.availability for k, v in parallel.items()
    }


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------


def test_cache_miss_then_hit(tmp_path):
    cache = str(tmp_path / "cache")
    first = measure_recovery_row(
        tree_ii(), ["rtu"], trials=TRIALS, seed=9, cache_dir=cache
    )
    files = os.listdir(cache)
    assert len(files) == 1  # one cell, one entry

    # Replace the cached samples with a sentinel: a second run must serve
    # the (tampered) cache entry rather than recompute.
    path = os.path.join(cache, files[0])
    payload = json.load(open(path))
    payload["result"]["samples"] = [1.0, 2.0, 3.0]
    json.dump(payload, open(path, "w"))

    second = measure_recovery_row(
        tree_ii(), ["rtu"], trials=TRIALS, seed=9, cache_dir=cache
    )
    assert second[0].samples == [1.0, 2.0, 3.0]
    assert first[0].samples != second[0].samples


def test_cache_invalidated_by_config_change(tmp_path):
    cache = str(tmp_path / "cache")
    baseline = measure_recovery_row(
        tree_ii(), ["rtu"], trials=TRIALS, seed=9, cache_dir=cache
    )
    changed = PAPER_CONFIG.with_overrides(ping_period=2.0)
    other = measure_recovery_row(
        tree_ii(), ["rtu"], trials=TRIALS, seed=9, cache_dir=cache, config=changed
    )
    # Different config -> different key -> recomputed, not served stale.
    assert len(os.listdir(cache)) == 2
    assert baseline[0].samples != other[0].samples


def test_cache_invalidated_by_every_spec_field(tmp_path):
    cell = CampaignCell(kind="recovery", tree="II", component="rtu", trials=3, seed=1)
    base = cache_key(cell, PAPER_CONFIG)
    assert cache_key(cell, PAPER_CONFIG) == base  # stable
    for change in (
        {"trials": 4},
        {"seed": 2},
        {"oracle": "faulty"},
        {"component": "mbus"},
        {"shard": 1},
        {"supervisor": "abstract"},
    ):
        assert cache_key(dataclasses.replace(cell, **change), PAPER_CONFIG) != base
    assert cache_key(cell, PAPER_CONFIG.with_overrides(reply_timeout=0.3)) != base


def test_config_fingerprint_tracks_field_changes():
    base = config_fingerprint(PAPER_CONFIG)
    assert config_fingerprint(PAPER_CONFIG) == base
    assert config_fingerprint(PAPER_CONFIG.with_overrides(ping_period=2.0)) != base


def _one_entry_cache(directory, seed=9):
    """A fresh cache directory holding one finished rtu cell; returns
    (directory, path of its entry)."""
    cache = str(directory)
    measure_recovery_row(tree_ii(), ["rtu"], trials=TRIALS, seed=seed, cache_dir=cache)
    (name,) = os.listdir(cache)
    return cache, os.path.join(cache, name)


def _reread(cache, seed=9):
    return measure_recovery_row(
        tree_ii(), ["rtu"], trials=TRIALS, seed=seed, cache_dir=cache
    )


def test_truncated_cache_entry_rejected(tmp_path):
    cache, path = _one_entry_cache(tmp_path / "cache")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[: len(text) // 2])
    with pytest.raises(ExperimentError, match="not JSON") as caught:
        _reread(cache)
    assert path in str(caught.value)


def test_cache_entry_for_another_cell_rejected(tmp_path):
    """An entry copied under the wrong key carries its own spec, and the
    spec is checked: it is not served as the requesting cell's result."""
    cache, path = _one_entry_cache(tmp_path / "cache", seed=9)
    _, other = _one_entry_cache(tmp_path / "other", seed=10)
    os.replace(other, path)
    with pytest.raises(ExperimentError, match="not the requesting cell") as caught:
        _reread(cache, seed=9)
    assert path in str(caught.value)


@pytest.mark.parametrize("entry", ['{"result": {}}', "[]"])
def test_cache_entry_without_its_cell_spec_rejected(tmp_path, entry):
    cache, path = _one_entry_cache(tmp_path / "cache")
    with open(path, "w") as fh:
        fh.write(entry)
    with pytest.raises(ExperimentError, match="not the requesting cell"):
        _reread(cache)


def test_cache_entry_with_non_object_result_rejected(tmp_path):
    cache, path = _one_entry_cache(tmp_path / "cache")
    with open(path) as fh:
        entry = json.load(fh)
    entry["result"] = [1.0, 2.0]
    with open(path, "w") as fh:
        json.dump(entry, fh)
    with pytest.raises(ExperimentError, match="result is not an object") as caught:
        _reread(cache)
    assert path in str(caught.value)


def test_cache_round_trip_with_cure_set_tuple(tmp_path, monkeypatch):
    """The stored spec is compared JSON-normalised: a ``cure_set`` tuple
    comes back from disk as a list and must still be the same cell."""
    cache = str(tmp_path / "cache")
    cell = CampaignCell(
        kind="recovery", tree="IV", component="pbcom", trials=2, seed=5,
        oracle="faulty", cure_set=("fedr", "pbcom"),
    )
    first = run_campaign([cell], cache_dir=cache)
    monkeypatch.setattr(
        "repro.experiments.runner.execute_cell",
        lambda *args: pytest.fail("recomputed instead of served from the cache"),
    )
    assert run_campaign([cell], cache_dir=cache) == first


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_campaign_that_dies_keeps_the_cells_it_finished(tmp_path, monkeypatch, jobs):
    """Entries are published as cells complete, so one failing cell costs
    only itself: the finished cell is on disk and the re-run replays it."""
    cache = str(tmp_path / "cache")
    finished = CampaignCell(kind="recovery", tree="II", component="rtu", trials=2, seed=5)
    # Fails while running, not at key time: tree II has no fedr to kill.
    failing = CampaignCell(kind="recovery", tree="II", component="fedr", trials=1, seed=1)
    with pytest.raises(UnknownProcessError):
        run_campaign([finished, failing], jobs=jobs, cache_dir=cache)
    assert os.listdir(cache) == [cache_key(finished, PAPER_CONFIG) + ".json"]
    monkeypatch.setattr(
        "repro.experiments.runner.execute_cell",
        lambda *args: pytest.fail("recomputed instead of served from the cache"),
    )
    (replayed,) = run_campaign([finished], cache_dir=cache)
    assert replayed["samples"]


def test_cache_key_ignores_environment(monkeypatch):
    """``cache_key`` reads no environment: execution knobs (and any other
    ``REPRO_*`` value) can never split or alias the result cache."""
    cells = [
        CampaignCell(kind="chaos", tree="V", seed=42, scenario="storm", trials=1),
        CampaignCell(
            kind="workload", tree="III", seed=campaign_seed(42, "workload", "III"),
            trials=2, strategy="microreboot", failure_kind="crash", request_rate=8.0,
        ),
        CampaignCell(
            kind="fleet", tree="V", seed=42, horizon_s=120.0, fleet_size=8,
            wave_interval_s=60.0, wave_drop=0.3,
        ),
    ]
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    clean = [cache_key(cell, PAPER_CONFIG) for cell in cells]
    for name, value in [
        ("REPRO_FLEET_SHARDS", "4"),
        ("REPRO_FLEET_JOBS", "4"),
        ("REPRO_OBS_VALIDATE", "1"),
        ("REPRO_BENCH_CACHE", "/nonexistent"),
        ("REPRO_NOT_A_KNOB", "anything"),
    ]:
        monkeypatch.setenv(name, value)
    assert [cache_key(cell, PAPER_CONFIG) for cell in cells] == clean


def test_unknown_cell_kind_rejected():
    cell = CampaignCell(kind="nonsense", tree="II", seed=1)
    with pytest.raises(ValueError):
        run_campaign([cell])


# ----------------------------------------------------------------------
# the table of kinds
# ----------------------------------------------------------------------

#: A non-default value for every field a kind may or may not read.
CHANGED = {
    "component": "rtu", "trials": 7, "shard": 2, "oracle": "faulty",
    "oracle_error_rate": 0.5, "oracle_too_high_rate": 0.1,
    "cure_set": ("fedr", "pbcom"), "supervisor": "abstract",
    "trial_timeout": 100.0, "aging": True, "horizon_s": 60.0,
    "scenario": "storm", "strategy": "restart", "failure_kind": "hang",
    "fleet_size": 3, "wave_interval_s": 30.0, "wave_drop": 0.1,
    "request_rate": 2.0,
}

#: The literal seed identity of each kind: the fields a cell is planned
#: with, and the parts ``campaign_seed`` must hash for it, in order.
SEED_IDENTITIES = {
    "recovery": (
        dict(tree="IV", oracle="faulty", component="pbcom", cure_set=("pbcom", "fedr"), shard=2),
        ("IV", "faulty", "pbcom", "fedr,pbcom", 2),
    ),
    "availability": (
        dict(tree="V", horizon_s=1800.0), ("availability", "V", 1800.0)
    ),
    "chaos": (dict(scenario="storm", tree="V"), ("chaos", "storm", "V")),
    "fleet": (
        dict(tree="V", fleet_size=8, wave_interval_s=60.0, horizon_s=120.0),
        ("fleet", "V", 8, 60.0, 120.0),
    ),
    "strategy": (
        dict(strategy="microreboot", failure_kind="crash", tree="III"),
        ("strategy", "microreboot", "crash", "III"),
    ),
    "workload": (
        dict(strategy="", failure_kind="hang", tree="III"),
        ("workload", "", "hang", "III"),
    ),
}


def _bare_keys():
    return {
        kind: cache_key(CampaignCell(kind=kind, tree="V", seed=1), PAPER_CONFIG)
        for kind in KINDS
    }


def test_the_contract_tables_cover_the_cell_and_the_kinds():
    fields = {spec.name for spec in dataclasses.fields(CampaignCell)}
    assert set(CHANGED) == fields - {"kind", "tree", "seed"}
    assert set(SEED_IDENTITIES) == set(KINDS)
    for row in KINDS.values():
        assert set(row.reads) <= set(CHANGED)
        assert set(row.identity) <= set(row.reads) | {"kind", "tree"}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_kind_row_contract(kind, monkeypatch, tmp_path):
    """One row of ``KINDS``, held statically (no cell runs): the fields it
    reads key the cache, the fields it does not are refused everywhere a
    cell enters, its version is its own, and its seed identity is pinned."""
    row = KINDS[kind]
    base = CampaignCell(kind=kind, tree="V", seed=1)
    key = cache_key(base, PAPER_CONFIG)
    for name, value in CHANGED.items():
        changed = dataclasses.replace(base, **{name: value})
        if name in row.reads:
            assert kind_of(changed) is row
            assert cache_key(changed, PAPER_CONFIG) != key
            continue
        for enter in (
            kind_of,
            execute_cell,
            lambda cell: cache_key(cell, PAPER_CONFIG),
            lambda cell: plan_cell(kind, 1, tree="V", **{name: value}),
        ):
            with pytest.raises(ExperimentError, match=f"{name}=.*{kind!r}"):
                enter(changed)

    fields, parts = SEED_IDENTITIES[kind]
    assert plan_cell(kind, 5, **fields).seed == campaign_seed(5, *parts)

    # A cache the parent commit wrote (one global "version": 11) is never a
    # hit, whatever number this kind's own version reaches.
    monkeypatch.setitem(KINDS, kind, dataclasses.replace(row, version=11))
    legacy = json.dumps(
        {
            "version": 11,
            "cell": dataclasses.asdict(base),
            "config": config_fingerprint(PAPER_CONFIG),
            "tree": base.tree,
        },
        sort_keys=True,
        default=str,
    )
    legacy_key = hashlib.sha256(legacy.encode("utf-8")).hexdigest()
    with open(tmp_path / f"{legacy_key}.json", "w") as fh:
        json.dump({"cell": dataclasses.asdict(base), "result": {"stale": True}}, fh)
    monkeypatch.setattr(
        "repro.experiments.runner.execute_cell", lambda *args: {"fresh": True}
    )
    assert run_campaign([base], cache_dir=str(tmp_path)) == [{"fresh": True}]

    # Bumping this kind's version moves its keys and nobody else's.
    before = _bare_keys()
    monkeypatch.setitem(KINDS, kind, dataclasses.replace(row, version=12))
    after = _bare_keys()
    assert {name for name in KINDS if before[name] != after[name]} == {kind}


@pytest.mark.parametrize("cached", [False, True])
def test_a_malformed_cell_fails_before_any_cell_runs(tmp_path, monkeypatch, cached):
    """An unknown kind or an unread field is found when the campaign looks
    its cells over, not when the pool reaches the bad one."""
    monkeypatch.setattr(
        "repro.experiments.runner.execute_cell",
        lambda *args: pytest.fail("a cell ran before the spec was checked"),
    )
    cache_dir = str(tmp_path) if cached else None
    good = CampaignCell(kind="recovery", tree="II", component="rtu", trials=1, seed=5)
    nonsense = CampaignCell(kind="nonsense", tree="II", seed=1)
    with pytest.raises(ValueError, match="nonsense"):
        run_campaign([good, nonsense], cache_dir=cache_dir)
    fleet = CampaignCell(kind="fleet", tree="V", seed=1, fleet_size=2, component="rtu")
    with pytest.raises(ExperimentError, match="component='rtu'.*'fleet'"):
        run_campaign([good, fleet], cache_dir=cache_dir)
