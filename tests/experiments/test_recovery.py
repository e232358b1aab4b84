"""Tests for the kill-and-measure recovery harness."""

import pytest

from repro.experiments.recovery import measure_recovery, measure_recovery_row
from repro.mercury.trees import tree_ii, tree_iv, tree_v

TRIALS = 8  # small for test speed; the benches run the paper's 100


def test_samples_count_and_metadata():
    result = measure_recovery(tree_ii(), "rtu", trials=TRIALS, seed=61)
    assert len(result.samples) == TRIALS
    assert result.tree_name == "tree-II"
    assert result.component == "rtu"
    assert result.oracle == "perfect"
    assert result.cure_set == frozenset(["rtu"])


def test_small_coefficient_of_variation():
    """§3.2's assumption, verified on our own measurements."""
    result = measure_recovery(tree_ii(), "rtu", trials=TRIALS, seed=62)
    assert result.stats.coefficient_of_variation < 0.1


def test_mean_matches_paper_tree_ii_rtu():
    result = measure_recovery(tree_ii(), "rtu", trials=TRIALS, seed=63)
    assert result.mean == pytest.approx(5.59, abs=0.5)


def test_joint_cure_set_forces_joint_restart():
    result = measure_recovery(
        tree_v(), "pbcom", trials=4, seed=64, cure_set=("fedr", "pbcom")
    )
    assert result.cure_set == frozenset(["fedr", "pbcom"])
    assert result.mean == pytest.approx(22.2, abs=1.0)


def test_faulty_oracle_slower_on_tree_iv():
    perfect = measure_recovery(
        tree_iv(), "pbcom", trials=6, seed=65, cure_set=("fedr", "pbcom")
    )
    faulty = measure_recovery(
        tree_iv(), "pbcom", trials=6, seed=65,
        oracle="faulty", oracle_error_rate=1.0, cure_set=("fedr", "pbcom"),
    )
    assert faulty.mean > perfect.mean + 15.0  # every trial pays the mistake
    assert faulty.oracle.startswith("faulty")


def test_row_helper_covers_components():
    results = measure_recovery_row(tree_ii(), ["rtu", "mbus"], trials=3, seed=66)
    assert [r.component for r in results] == ["rtu", "mbus"]
    assert all(len(r.samples) == 3 for r in results)


def test_abstract_supervisor_agrees_with_full():
    """The fast path's recovery distribution matches the full stack."""
    full = measure_recovery(tree_v(), "rtu", trials=10, seed=67, supervisor="full")
    fast = measure_recovery(tree_v(), "rtu", trials=10, seed=67, supervisor="abstract")
    assert fast.mean == pytest.approx(full.mean, abs=0.3)


def test_determinism():
    a = measure_recovery(tree_v(), "ses", trials=4, seed=68)
    b = measure_recovery(tree_v(), "ses", trials=4, seed=68)
    assert a.samples == b.samples


def test_result_carries_phase_breakdown():
    result = measure_recovery(tree_ii(), "rtu", trials=4, seed=70)
    phases = result.phase_summary("rtu")
    assert phases["total"].n == 4
    # The span-derived totals are the same quantity as the sampled ones.
    assert phases["total"].mean == pytest.approx(result.mean, abs=1e-9)
    assert (
        phases["detection"].mean
        + phases["decision"].mean
        + phases["restart"].mean
    ) == pytest.approx(phases["total"].mean)


def test_cell_builds_only_what_its_phase_table_reads(built):
    from repro.obs.sinks import CallbackSink
    from repro.obs.spans import EpisodeTracker

    measure_recovery(tree_ii(), "rtu", trials=1, seed=72)  # warm the template
    built.clear()
    alone = measure_recovery(tree_ii(), "rtu", trials=2, seed=72)
    assert built and {r.kind for r in built} <= EpisodeTracker.kinds
    built.clear()
    seen = []
    watched = measure_recovery(
        tree_ii(), "rtu", trials=2, seed=72, sinks=[CallbackSink(seen.append)]
    )
    assert seen == built
    assert {r.kind for r in seen} - EpisodeTracker.kinds  # every kind is back
    assert (watched.samples, watched.phases) == (alone.samples, alone.phases)


def test_extra_sinks_receive_the_run():
    from repro.obs.sinks import MetricsSink

    extra = MetricsSink(track_episodes=False)
    measure_recovery(tree_ii(), "rtu", trials=2, seed=71, sinks=[extra])
    assert extra.count("failure_injected") == 2
    assert extra.count("process_ready") >= 2
