"""Tests for the steady-state cell: Table 1 lifetimes, availability and
§5.2 passes, all from ``measure_availability``."""

import dataclasses

import pytest

from repro.errors import ExperimentError
from repro.experiments.availability import _Rejuvenation, measure_availability, pass_in_view
from repro.mercury.config import PAPER_CONFIG
from repro.mercury.orbit import PassWindow
from repro.mercury.station import MercuryStation
from repro.mercury.trees import TREE_BUILDERS, tree_i, tree_ii, tree_v
from repro.obs.sinks import MetricsSink

DAY = 86400.0


def relative_error(result, component):
    """|observed − configured| / configured for Table 1's arrival MTTF."""
    configured = PAPER_CONFIG.mttf_seconds[component]
    return abs(result.mttf(component) - configured) / configured


def test_observed_mttf_converges_to_table1_unsplit():
    """Table 1 closure on tree II (the pre-split component set), with the
    resync coupling and aging on: the arrival estimator does not see the
    failures they induce."""
    result = measure_availability(tree_ii(), horizon_s=5 * DAY, seed=71)
    # fedrcom fails every 10 minutes: plenty of samples in 5 days.
    assert result.arrivals["fedrcom"] > 300
    assert relative_error(result, "fedrcom") < 0.15
    # ses/str/rtu: ~24 failures each over 5 days — looser tolerance.
    for component in ("ses", "str", "rtu"):
        assert result.arrivals[component] >= 5
        assert relative_error(result, component) < 0.6
        # Induced failures only add to the all-cause count.
        assert result.component_failures[component] >= result.arrivals[component]


def test_no_failures_for_month_scale_mttf_in_short_run():
    result = measure_availability(tree_ii(), horizon_s=1 * DAY, seed=72)
    assert result.arrivals["mbus"] <= 1
    assert result.mttf("mbus") is None or result.mttf("mbus") > DAY / 2


def test_arrivals_count_only_the_horizon():
    """A template's injector may have fired while it warmed (tree IV's
    does, on fedr); a one-second cell reports no arrival anyway."""
    for label in sorted(TREE_BUILDERS):
        result = measure_availability(TREE_BUILDERS[label](), horizon_s=1.0, seed=3)
        assert set(result.arrivals.values()) == {0}, label


@pytest.mark.parametrize("horizon", [0.0, -1.0, float("inf"), float("nan")])
def test_non_positive_horizon_rejected(horizon):
    with pytest.raises(ExperimentError, match="horizon must be positive"):
        measure_availability(tree_v(), horizon_s=horizon)


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
    loss_i = measure_availability(tree_i(), horizon_s=5 * DAY, seed=75)
    loss_v = measure_availability(tree_v(), horizon_s=5 * DAY, seed=75)
    assert loss_i.passes == loss_v.passes > 10
    assert loss_i.pass_loss_fraction > 2 * loss_v.pass_loss_fraction
    assert loss_i.broken_links > loss_v.broken_links


def test_pass_campaign_bytes_conserved():
    result = measure_availability(tree_v(), horizon_s=3 * DAY, seed=76)
    assert 0.0 < result.pass_received_bytes <= result.pass_expected_bytes
    assert 0.0 <= result.pass_loss_fraction <= 1.0
    assert result.whole_passes_lost <= result.passes
    assert result.broken_links <= result.passes


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
    """On its own the run attaches an episode tracker, so its disabled
    trace builds only the tracker's kinds; a read-everything sink beside it
    (``MetricsSink`` or the determinism gate's JSONL stream) brings every
    record back.  The result must not notice."""
    import io

    from repro.obs.sinks import JsonlSink
    from repro.obs.spans import EpisodeTracker, phase_snapshot

    alone = measure_availability(TREE_BUILDERS[label](), horizon_s=DAY / 2, seed=77)
    everything = MetricsSink()
    episodes = EpisodeTracker()
    stream = io.StringIO()
    watched = measure_availability(
        TREE_BUILDERS[label](),
        horizon_s=DAY / 2,
        seed=77,
        sinks=[everything, episodes, JsonlSink(stream)],
    )
    assert dataclasses.asdict(alone) == dataclasses.asdict(watched)
    assert alone.outages > 0 and alone.phase_breakdown
    # measure_availability closed it, which flushed the tracker.
    assert alone.phase_breakdown == phase_snapshot(episodes.episodes)
    # The neighbours really saw the kinds nobody else reads.
    assert everything.count("process_start") > 0
    assert stream.getvalue().count("\n") == sum(everything.counters.values())


def test_rejuvenation_rounds_run_and_are_counted():
    """Each round is a restart of ``R_fedr_pbcom``, a skip with a pass in
    view, or a refusal by a recovering supervisor; the restarts reset
    pbcom's age and cost outages."""
    horizon, period = DAY / 2, 600.0
    reactive = measure_availability(tree_v(), horizon_s=horizon, seed=78)
    planned = measure_availability(
        tree_v(), horizon_s=horizon, seed=78, rejuvenation_period_s=period
    )
    rounds = planned.proactive_restarts + planned.rejuvenation_skipped
    assert rounds <= horizon / (0.95 * period)  # ±5 % jitter
    assert planned.proactive_restarts > horizon / (1.05 * period) / 2
    assert planned.rejuvenation_skipped > 0  # passes fall inside 12 h
    assert planned.aging_crashes < reactive.aging_crashes
    assert planned.outages > reactive.outages
    assert planned.availability < reactive.availability


def test_no_rejuvenation_round_at_period_zero():
    """Period 0, the default, runs no round: nothing is counted, no
    ``proactive_restart`` record is emitted, and the result is the
    reactive cell's."""
    horizon = DAY / 4
    default = measure_availability(tree_v(), horizon_s=horizon, seed=78)
    everything = MetricsSink()
    off = measure_availability(
        tree_v(), horizon_s=horizon, seed=78, rejuvenation_period_s=0.0, sinks=[everything]
    )
    assert off.proactive_restarts == off.rejuvenation_skipped == 0
    assert everything.count("proactive_restart") == 0
    assert everything.count("process_start") > 0
    assert dataclasses.asdict(off) == dataclasses.asdict(default)


def test_a_round_with_a_pass_in_view_is_skipped():
    """With a pass in view all along, every round skips itself and the
    aging victim's cell is never restarted."""
    station = MercuryStation(tree=tree_v(), seed=102, supervisor="abstract")
    station.manager.start_all(station.station_components)
    station.kernel.run(until=60.0)
    always = [PassWindow("opal", start=0.0, duration=1e6, max_elevation_deg=60.0)]
    rounds = _Rejuvenation(station, always, period=20.0)
    station.run_for(100.0)
    assert rounds.restarts == 0
    assert rounds.skipped >= 4
    assert station.manager.get("pbcom").start_count == 1
    assert station.all_station_running()


def test_pass_in_view_window_table():
    """The rule: skip when a pass is in progress or starts within 60 s."""
    windows = [
        PassWindow("opal", start=100.0, duration=600.0, max_elevation_deg=60.0),
        PassWindow("opal", start=2000.0, duration=600.0, max_elevation_deg=60.0),
    ]
    assert not pass_in_view(windows, 0.0)   # pass starts at 100, margin ends at 60
    assert pass_in_view(windows, 50.0)      # pass would start inside the margin
    assert pass_in_view(windows, 300.0)     # mid-pass
    assert not pass_in_view(windows, 800.0)  # between passes, next one far away
    assert pass_in_view(windows, 1950.0)    # second pass imminent
    assert not pass_in_view(windows, 2700.0)  # after the last pass


@pytest.mark.parametrize("period", [-1.0, float("nan"), float("inf")])
def test_bad_rejuvenation_period_rejected(period):
    with pytest.raises(ExperimentError, match="rejuvenation_period_s"):
        measure_availability(tree_v(), horizon_s=DAY, rejuvenation_period_s=period)


@pytest.mark.parametrize("label", ["I", "II"])
def test_rejuvenation_refused_where_nothing_ages(label):
    """Trees I and II have no pbcom: no disconnect aging to rejuvenate."""
    with pytest.raises(ExperimentError, match="rejuvenation_period_s"):
        measure_availability(
            TREE_BUILDERS[label](), horizon_s=DAY, rejuvenation_period_s=1800.0
        )
    assert measure_availability(TREE_BUILDERS[label](), horizon_s=1.0).aging_crashes == 0
