"""Tests for live pass accounting on a running station."""

import pytest

from repro.mercury.orbit import PassWindow
from repro.mercury.passes import DOWNLINK_HZ, PassAccountant
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_v


def make_station(seed=41, **kw):
    station = MercuryStation(tree=tree_v(), seed=seed, **kw)
    station.boot()
    return station


def upcoming_window(station, offset=30.0, duration=300.0):
    return PassWindow(
        "opal", start=station.kernel.now + offset, duration=duration,
        max_elevation_deg=75.0,
    )


def test_clean_pass_full_data(kernel):
    station = make_station()
    window = upcoming_window(station)
    accountant = PassAccountant(station, [window])
    station.run_for(400.0)
    assert accountant.summary.passes == 1
    outcome = accountant.summary.outcomes[0]
    assert outcome.loss_fraction == pytest.approx(0.0)
    assert not outcome.link_broken


def test_failure_during_pass_loses_data():
    station = make_station()
    window = upcoming_window(station, offset=30.0, duration=300.0)
    accountant = PassAccountant(station, [window])
    station.run_for(60.0)  # inside the pass
    failure = station.injector.inject_simple("rtu")
    station.run_until_recovered(failure)
    station.run_for(400.0)
    outcome = accountant.summary.outcomes[0]
    assert outcome.bytes_lost > 0
    assert outcome.failures_during_pass == 1
    assert not outcome.link_broken  # rtu recovery ~5.6s < threshold


def test_pbcom_failure_during_pass_breaks_link():
    station = make_station(seed=43)
    window = upcoming_window(station, offset=30.0, duration=600.0)
    accountant = PassAccountant(station, [window])
    station.run_for(60.0)
    failure = station.injector.inject_simple("pbcom")  # ~22s joint recovery
    station.run_until_recovered(failure)
    station.run_for(700.0)
    outcome = accountant.summary.outcomes[0]
    assert outcome.link_broken
    assert outcome.loss_fraction > 0.5  # rest of the pass forfeited


def test_failure_outside_pass_costs_nothing():
    station = make_station(seed=44)
    window = upcoming_window(station, offset=120.0, duration=300.0)
    accountant = PassAccountant(station, [window])
    failure = station.injector.inject_simple("ses")
    station.run_until_recovered(failure)
    station.run_until_quiescent()
    station.run_for(500.0)
    outcome = accountant.summary.outcomes[0]
    assert outcome.loss_fraction == pytest.approx(0.0)


def test_multiple_passes_accounted(kernel):
    station = make_station(seed=45)
    windows = [
        upcoming_window(station, offset=30.0, duration=120.0),
        upcoming_window(station, offset=300.0, duration=120.0),
    ]
    accountant = PassAccountant(station, windows)
    station.run_for(600.0)
    assert accountant.summary.passes == 2


def test_ses_tracks_only_inside_the_window():
    station = MercuryStation(tree=tree_v(), seed=46)
    window = PassWindow("opal", start=40.0, duration=30.0, max_elevation_deg=75.0)
    PassAccountant(station, [window])
    station.boot()
    ses = station.manager.get("ses").behavior
    grew_at = []
    while station.kernel.now < window.end + 30.0:
        sent = ses.solutions_sent
        assert station.kernel.step()
        if ses.solutions_sent != sent:
            grew_at.append(station.kernel.now)
    assert grew_at and all(window.contains(now) for now in grew_at)
    # One solution per solve period inside the window, none after it.
    assert len(grew_at) == pytest.approx(window.duration / ses.solution_period, abs=1)
    assert station.hardware.antenna.point_count == len(grew_at)


def test_tracking_solution_for_schedule():
    windows = [
        PassWindow("opal", start=100.0, duration=600.0, max_elevation_deg=80.0),
        PassWindow("sapphire", start=1000.0, duration=600.0, max_elevation_deg=40.0),
    ]
    solution = PassAccountant(MercuryStation(tree=tree_v()), windows).solution
    assert solution(50.0) is None
    azimuth, elevation, frequency = solution(400.0)
    assert (azimuth, elevation) == windows[0].look_angles(400.0)
    assert elevation == pytest.approx(80.0, abs=1.0)
    assert frequency == pytest.approx(DOWNLINK_HZ, rel=0.001)
    assert solution(800.0) is None
    assert solution(1300.0)[:2] == windows[1].look_angles(1300.0)
    assert solution(1600.0) is None  # the end is outside the window


def test_tracking_solution_doppler_ramp():
    windows = [PassWindow("opal", start=0.0, duration=600.0, max_elevation_deg=80.0)]
    solution = PassAccountant(MercuryStation(tree=tree_v()), windows).solution
    _, _, early = solution(1.0)
    _, _, middle = solution(300.0)
    _, _, late = solution(599.0)
    assert early > middle == DOWNLINK_HZ > late  # approaching then receding
