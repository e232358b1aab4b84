"""Tests for the chaos trial loop, determinism, and campaign integration."""

import json

import pytest

from repro.chaos.engine import ChaosResult, run_chaos
from repro.chaos.scenarios import Injection, Scenario, ScenarioPlan
from repro.errors import ExperimentError
from repro.experiments.runner import run_suite
from repro.mercury.config import PAPER_CONFIG
from repro.mercury.trees import TREE_BUILDERS
from repro.obs.sinks import JsonlSink


def payload_json(result):
    return json.dumps(result.to_payload(), sort_keys=True)


def test_cascade_on_tree_v_recovers_cleanly():
    result = run_chaos(TREE_BUILDERS["V"](), "cascade", trials=1, seed=42)
    assert result.ok
    assert result.injected == 2 and result.skipped == 0
    # The shared-fate group fells str (and re-fells peers), so there are
    # more episodes than direct injections.
    assert result.episodes > result.injected
    assert len(result.mttr_samples) == result.episodes
    assert all(sample > 0 for sample in result.mttr_samples)
    assert result.cured >= result.episodes
    assert result.stats.n == result.episodes


def test_scenario_accepts_instances_and_unknown_names_raise():
    with pytest.raises(KeyError):
        run_chaos(TREE_BUILDERS["V"](), "nope")


def test_same_seed_is_byte_identical(tmp_path):
    traces = []
    payloads = []
    for run in (1, 2):
        path = tmp_path / f"run{run}.jsonl"
        result = run_chaos(
            TREE_BUILDERS["V"](), "cascade", trials=1, seed=42,
            sinks=[JsonlSink(str(path))],
        )
        traces.append(path.read_bytes())
        payloads.append(payload_json(result))
    assert traces[0] == traces[1]
    assert payloads[0] == payloads[1]
    assert traces[0]  # non-empty: the sink actually streamed events


def test_different_seeds_differ():
    a = run_chaos(TREE_BUILDERS["V"](), "cascade", trials=1, seed=1)
    b = run_chaos(TREE_BUILDERS["V"](), "cascade", trials=1, seed=2)
    assert a.mttr_samples != b.mttr_samples


def test_multi_trial_run_accumulates():
    result = run_chaos(TREE_BUILDERS["V"](), "storm", trials=2, seed=5)
    assert result.ok
    assert result.trials == 2
    assert result.injected == 8  # 4 storm injections per trial


def test_payload_roundtrip():
    result = run_chaos(TREE_BUILDERS["IV"](), "mixed", trials=1, seed=9)
    clone = ChaosResult.from_payload(
        json.loads(json.dumps(result.to_payload()))
    )
    assert payload_json(clone) == payload_json(result)


def test_flapping_hits_the_supervisor_pair():
    result = run_chaos(TREE_BUILDERS["V"](), "flapping", trials=1, seed=3)
    assert result.ok
    assert result.skipped == 0  # every chaos station runs fd and rec


def test_operator_intervention_path():
    """With a one-restart budget and a naive oracle, a joint-cure failure
    exhausts the supervisor; the engine's operator fallback restores the
    station and the run still terminates cleanly."""
    stubborn = Scenario(
        "stubborn",
        "one persistent joint failure under a starved budget",
        lambda rng, components: ScenarioPlan(
            injections=(
                Injection(at=5.0, component="pbcom", cure_set=("fedr", "pbcom"),
                          kind="persistent"),
            ),
            horizon=40.0,
        ),
    )
    # Tree III restarts pbcom alone for a pbcom failure (no consolidated
    # [fedr, pbcom] cell), so the naive recommendation cannot cure it and
    # the one-restart budget blocks escalation.
    result = run_chaos(
        TREE_BUILDERS["III"](),
        stubborn,
        trials=1,
        seed=4,
        oracle="naive",
        config=PAPER_CONFIG.with_overrides(restart_budget=1),
    )
    assert result.operator_interventions == 1
    assert result.escalations >= 1


def test_suite_serial_equals_parallel(tmp_path):
    kwargs = dict(trials=1, seed=6)
    axes = {"scenario": ["cascade"], "tree": ["I", "V"]}
    serial = run_suite("chaos", axes, jobs=1, **kwargs)
    parallel = run_suite("chaos", axes, jobs=2, **kwargs)
    assert set(serial) == {("cascade", "I"), ("cascade", "V")}
    for key in serial:
        assert payload_json(serial[key]) == payload_json(parallel[key])


def test_suite_cache_roundtrip(tmp_path):
    cache = str(tmp_path / "cache")
    axes = {"scenario": ["mixed"], "tree": ["V"]}
    first = run_suite("chaos", axes, trials=1, seed=8, cache_dir=cache)
    cached = run_suite("chaos", axes, trials=1, seed=8, cache_dir=cache)
    assert payload_json(first[("mixed", "V")]) == payload_json(cached[("mixed", "V")])
    # A different seed must miss the cache, not replay the old result.
    other = run_suite("chaos", axes, trials=1, seed=9, cache_dir=cache)
    assert payload_json(other[("mixed", "V")]) != payload_json(first[("mixed", "V")])


def test_suite_seeds_are_cell_independent():
    kwargs = dict(trials=1, seed=6)
    wide = run_suite("chaos", {"scenario": ["cascade", "mixed"], "tree": ["V"]}, **kwargs)
    narrow = run_suite("chaos", {"scenario": ["mixed"], "tree": ["V"]}, **kwargs)
    assert payload_json(wide[("mixed", "V")]) == payload_json(narrow[("mixed", "V")])


# ----------------------------------------------------------------------
# the network-faulted and fail-slow scenarios
# ----------------------------------------------------------------------

@pytest.mark.parametrize("scenario", ["lossy", "partition", "zombie-fleet"])
def test_new_scenarios_run_clean_and_replay(scenario):
    result = run_chaos(TREE_BUILDERS["V"](), scenario, trials=1, seed=7)
    assert result.ok, result.violations
    assert result.violations == []
    replay = run_chaos(TREE_BUILDERS["V"](), scenario, trials=1, seed=7)
    assert payload_json(replay) == payload_json(result)


def test_lossy_exercises_the_fabric_and_the_guard():
    result = run_chaos(TREE_BUILDERS["V"](), "lossy", trials=1, seed=7)
    assert result.net_dropped > 0
    assert result.net_duplicated > 0
    # The adaptive detector both erred and corrected itself under loss.
    assert result.false_positives > 0
    assert result.retractions > 0


def test_zombie_fleet_detects_without_a_network():
    result = run_chaos(TREE_BUILDERS["V"](), "zombie-fleet", trials=1, seed=7)
    assert result.ok
    assert result.net_dropped == 0
    assert result.episodes >= 3  # every fail-slow injection was unmasked


def test_payload_roundtrip_carries_accuracy_counters():
    result = run_chaos(TREE_BUILDERS["V"](), "lossy", trials=1, seed=7)
    clone = ChaosResult.from_payload(json.loads(json.dumps(result.to_payload())))
    assert clone.false_positives == result.false_positives
    assert clone.retractions == result.retractions
    assert clone.net_dropped == result.net_dropped
    assert clone.net_duplicated == result.net_duplicated


def test_old_payloads_without_accuracy_counters_still_load():
    result = run_chaos(TREE_BUILDERS["IV"](), "mixed", trials=1, seed=9)
    payload = result.to_payload()
    for key in ("false_positives", "retractions", "net_dropped", "net_duplicated"):
        payload.pop(key)
    clone = ChaosResult.from_payload(payload)
    assert clone.false_positives == 0 and clone.net_dropped == 0


# ----------------------------------------------------------------------
# double faults in the recovery plane
# ----------------------------------------------------------------------

@pytest.mark.parametrize("scenario", ["blind", "hung-fd", "hung-rec"])
def test_double_faults_in_the_recovery_plane_recover_on_every_tree(scenario):
    for label, build in TREE_BUILDERS.items():
        result = run_chaos(build(), scenario, trials=1, seed=3)
        assert (result.skipped, result.operator_interventions) == (0, 0), label
        assert result.ok and result.episodes >= result.injected, label


def _build_decapitate(rng, components):
    first = rng.uniform(5.0, 10.0)
    return ScenarioPlan(
        injections=(
            Injection(at=first, component="fd", kind="flap"),
            Injection(at=first, component="rec", kind="flap"),
            Injection(at=first + rng.uniform(25.0, 30.0), component="rtu"),
        ),
        horizon=120.0,
    )


@pytest.mark.xfail(
    strict=True,
    raises=ExperimentError,
    reason="FD and REC killed at one instant: nobody restarts either (ROADMAP 13(b))",
)
def test_decapitate_quiesces_on_every_tree():
    decapitate = Scenario(
        "decapitate", "FD and REC killed at one instant, then a station fault",
        _build_decapitate,
    )
    for build in TREE_BUILDERS.values():
        assert run_chaos(build(), decapitate, trials=1, seed=3).ok
