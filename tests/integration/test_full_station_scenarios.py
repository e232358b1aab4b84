"""Long multi-fault scenarios on the full-fidelity station."""

import pytest

from repro.experiments.metrics import UptimeTracker
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_iii, tree_v


def test_station_survives_failure_storm():
    """Twenty mixed failures in sequence; the station must always recover."""
    station = MercuryStation(tree=tree_v(), seed=91)
    station.boot()
    components = ["rtu", "ses", "fedr", "mbus", "str", "fedr", "pbcom"]
    for index in range(20):
        station.run_until_quiescent()
        station.run_for(1.0 + (index % 5) * 0.7)
        component = components[index % len(components)]
        failure = station.injector.inject_simple(component)
        recovery = station.run_until_recovered(failure)
        assert recovery < 40.0, (index, component)
    station.run_until_quiescent()
    assert station.all_station_running()


@pytest.mark.soak
def test_steady_faults_full_fidelity_half_day():
    """The full FD/REC stack (not the abstract path) under natural Table 1
    arrivals for half a simulated day."""
    station = MercuryStation(
        tree=tree_v(), seed=92, steady_faults=True,
        solution_period=60.0, trace_capacity=50_000,
    )
    station.boot()
    tracker = UptimeTracker(station.manager, station.station_components)
    station.run_for(43200.0)
    tracker.finalize()
    # fedr alone fails ~72 times; everything must keep recovering.
    assert tracker.failures_of("fedr") > 30
    assert tracker.system_availability() > 0.95
    assert not station.trace.filter(kind="operator_escalation")


def test_overlapping_failures_both_recover():
    station = MercuryStation(tree=tree_v(), seed=93)
    station.boot()
    f1 = station.injector.inject_simple("pbcom")  # slow joint restart
    station.run_for(5.0)
    f2 = station.injector.inject_simple("rtu")  # fast, queued behind pbcom
    r1 = station.run_until_recovered(f1)
    r2 = station.run_until_recovered(f2)
    assert r1 < 60.0 and r2 < 60.0
    station.run_until_quiescent()
    assert station.all_station_running()


def test_failure_during_restart_of_other_group():
    station = MercuryStation(tree=tree_v(), seed=94)
    station.boot()
    f1 = station.injector.inject_simple("ses")
    station.run_for(2.0)  # ses/str restart in flight
    f2 = station.injector.inject_simple("fedr")
    station.run_until_recovered(f1)
    station.run_until_recovered(f2)
    station.run_until_quiescent()
    assert station.all_station_running()


def test_correlated_cascade_tree_iii_settles():
    """ses failure -> lone restart -> induced str failure -> lone restart,
    and the cascade must stop there (no infinite ping-pong)."""
    station = MercuryStation(tree=tree_iii(), seed=95)
    station.boot()
    station.injector.inject_simple("ses")
    station.run_until_quiescent(timeout=120.0)
    induced = station.trace.filter(kind="failure_induced")
    assert len(induced) == 1
    restarts = station.trace.filter(kind="restart_ordered")
    assert len(restarts) == 2  # R_ses then R_str


def test_learning_oracle_converges_live():
    from repro.core.oracle import LearningOracle

    oracle = LearningOracle(min_samples=2, confidence=0.6)
    station = MercuryStation(tree=tree_iii(), seed=96, oracle=oracle)
    station.boot()
    samples = []
    for _ in range(8):
        station.run_until_quiescent()
        station.run_for(0.5)
        failure = station.injector.inject_joint("pbcom", ["fedr", "pbcom"])
        samples.append(station.run_until_recovered(failure))
    # Early episodes pay guess-too-low escalation; late ones do not.
    assert sum(samples[:2]) / 2 > sum(samples[-2:]) / 2 + 10.0
    assert oracle.f_estimates("pbcom")["R_fedr_pbcom"] == 1.0
