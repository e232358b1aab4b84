"""Tests for the long-horizon experiments: lifetimes, availability, passes."""

import pytest

from repro.experiments.availability import measure_availability
from repro.experiments.lifetimes import measure_lifetimes
from repro.experiments.passes_experiment import run_pass_campaign
from repro.mercury.trees import TREE_BUILDERS, tree_i, tree_ii, tree_v

DAY = 86400.0


def test_observed_mttf_converges_to_table1_unsplit():
    """Table 1 closure on tree II (the pre-split component set)."""
    result = measure_lifetimes(tree_ii(), horizon_s=5 * DAY, seed=71)
    # fedrcom fails every 10 minutes: plenty of samples in 5 days.
    assert result.failures["fedrcom"] > 300
    assert result.relative_error("fedrcom") < 0.15
    # ses/str/rtu: ~24 failures each over 5 days — looser tolerance.
    for component in ("ses", "str", "rtu"):
        assert result.failures[component] >= 5
        assert result.relative_error(component) < 0.6


def test_no_failures_for_month_scale_mttf_in_short_run():
    result = measure_lifetimes(tree_ii(), horizon_s=1 * DAY, seed=72)
    assert result.failures["mbus"] <= 1
    assert result.observed_mttf["mbus"] is None or result.observed_mttf["mbus"] > DAY / 2


def test_availability_tree_v_beats_tree_i():
    a_i = measure_availability(tree_i(), horizon_s=3 * DAY, seed=73)
    a_v = measure_availability(tree_v(), horizon_s=3 * DAY, seed=73)
    assert a_v.availability > a_i.availability
    assert a_i.mean_outage_s is not None and a_v.mean_outage_s is not None
    # The paper's headline: recovery time improved by a factor of ~4.
    assert a_i.mean_outage_s / a_v.mean_outage_s > 3.0


def test_availability_result_accounting():
    result = measure_availability(tree_v(), horizon_s=2 * DAY, seed=74)
    assert 0.9 < result.availability < 1.0
    assert result.outages > 0
    assert result.total_downtime_s == pytest.approx(
        (1 - result.availability) * 2 * DAY, rel=0.01
    )
    assert result.annual_downtime_minutes > 0


def test_pass_campaign_shape():
    loss_i = run_pass_campaign(tree_i(), days=5, seed=75)
    loss_v = run_pass_campaign(tree_v(), days=5, seed=75)
    assert loss_i.summary.passes == loss_v.summary.passes > 10
    assert loss_i.loss_fraction > 2 * loss_v.loss_fraction
    assert loss_i.summary.broken_links > loss_v.summary.broken_links


def test_pass_campaign_bytes_conserved():
    result = run_pass_campaign(tree_v(), days=3, seed=76)
    summary = result.summary
    assert summary.total_received_bytes <= summary.total_expected_bytes
    for outcome in summary.outcomes:
        assert 0.0 <= outcome.loss_fraction <= 1.0


def test_availability_phase_breakdown():
    import pytest

    result = measure_availability(tree_v(), horizon_s=2 * DAY, seed=74)
    summary = result.phase_summary("rtu")
    if summary:  # rtu failed at least once in the horizon
        assert summary["total"].n >= 1
        assert summary["total"].mean == pytest.approx(
            summary["detection"].mean
            + summary["decision"].mean
            + summary["restart"].mean,
        )
    # The breakdown exists even though the trace ring was disabled.
    assert isinstance(result.phase_breakdown, dict)
    assert result.phase_breakdown  # something failed in two days


@pytest.mark.parametrize("label", ["I", "II", "III", "IV", "V"])
def test_availability_is_the_same_whoever_else_listens(label):
    """On its own the run attaches a phases-only sink, so its disabled
    trace builds only the episode tracker's kinds; a read-everything sink
    beside it (``MetricsSink`` — the sink the run itself used to attach —
    or the determinism gate's JSONL stream) brings every record back.  The
    result must not notice."""
    import dataclasses
    import io

    from repro.obs.sinks import JsonlSink, MetricsSink

    alone = measure_availability(TREE_BUILDERS[label](), horizon_s=DAY / 2, seed=77)
    everything = MetricsSink()
    stream = io.StringIO()
    watched = measure_availability(
        TREE_BUILDERS[label](),
        horizon_s=DAY / 2,
        seed=77,
        sinks=[everything, JsonlSink(stream)],
    )
    assert dataclasses.asdict(alone) == dataclasses.asdict(watched)
    assert alone.outages > 0 and alone.phase_breakdown
    # measure_availability closed it, which flushed its tracker.
    assert alone.phase_breakdown == everything.phase_snapshot()
    # The neighbours really saw the kinds nobody else reads.
    assert everything.count("process_start") > 0
    assert stream.getvalue().count("\n") == sum(everything.counters.values())
