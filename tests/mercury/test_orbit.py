"""Tests for the synthetic orbit / pass-prediction model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.mercury.orbit import (
    PassWindow,
    Satellite,
    default_satellites,
    predict_passes,
)


def test_default_satellites_are_leo_like():
    sats = default_satellites()
    assert {s.name for s in sats} == {"opal", "sapphire"}
    for sat in sats:
        assert 5000 < sat.period_s < 7000
        assert 3.0 < sat.expected_passes_per_day < 5.0


def test_predicted_pass_rate_matches_expectation():
    sat = Satellite("test", period_s=5700.0, visible_fraction=0.27)
    horizon = 30 * 86400.0
    passes = predict_passes(sat, horizon)
    per_day = len(passes) / 30.0
    assert per_day == pytest.approx(sat.expected_passes_per_day, rel=0.2)


def test_pass_durations_bounded_by_max():
    sat = Satellite("test")
    for window in predict_passes(sat, 14 * 86400.0):
        assert 60.0 <= window.duration <= sat.max_pass_duration_s + 1e-9


def test_passes_sorted_and_non_overlapping_per_satellite():
    sat = Satellite("test")
    passes = predict_passes(sat, 14 * 86400.0)
    for a, b in zip(passes, passes[1:]):
        assert a.start < b.start
        assert a.end <= b.start


def test_prediction_is_deterministic():
    sat = Satellite("test", phase_offset=0.25)
    assert predict_passes(sat, 86400.0) == predict_passes(sat, 86400.0)


def test_prediction_window_respected():
    sat = Satellite("test")
    passes = predict_passes(sat, horizon_s=86400.0, start=86400.0)
    for window in passes:
        assert 86400.0 <= window.start < 2 * 86400.0


def test_max_elevation_in_range():
    sat = Satellite("test")
    for window in predict_passes(sat, 30 * 86400.0):
        assert 0.0 < window.max_elevation_deg <= 90.0


def test_look_angles_sweep():
    window = PassWindow("opal", start=100.0, duration=600.0, max_elevation_deg=80.0)
    azimuth_start, elevation_start = window.look_angles(100.0)
    azimuth_mid, elevation_mid = window.look_angles(400.0)
    assert elevation_mid == pytest.approx(80.0)
    assert elevation_start == pytest.approx(0.0, abs=1e-9)
    assert azimuth_mid != azimuth_start


def test_look_angles_outside_window_rejected():
    window = PassWindow("opal", start=100.0, duration=600.0, max_elevation_deg=80.0)
    with pytest.raises(ExperimentError):
        window.look_angles(99.0)


def test_contains_and_end():
    window = PassWindow("opal", start=10.0, duration=5.0, max_elevation_deg=45.0)
    assert window.end == 15.0
    assert window.contains(10.0)
    assert window.contains(14.999)
    assert not window.contains(15.0)
    assert not window.contains(9.999)


def test_invalid_satellite_parameters():
    with pytest.raises(ExperimentError):
        Satellite("bad", period_s=0.0)
    with pytest.raises(ExperimentError):
        Satellite("bad", visible_fraction=0.0)
    with pytest.raises(ExperimentError):
        Satellite("bad", visible_fraction=1.5)


def test_invalid_horizon():
    with pytest.raises(ExperimentError):
        predict_passes(Satellite("x"), horizon_s=0.0)


@given(
    phase=st.floats(min_value=0.0, max_value=0.999),
    fraction=st.floats(min_value=0.05, max_value=0.9),
)
@settings(max_examples=40, deadline=None)
def test_passes_always_valid(phase, fraction):
    sat = Satellite("h", phase_offset=phase, visible_fraction=fraction)
    for window in predict_passes(sat, 7 * 86400.0):
        assert window.duration > 0
        assert 0 < window.max_elevation_deg <= 90.0
        assert window.end > window.start
