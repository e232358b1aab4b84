"""Tests for curability profiles (the paper's f_ci distributions)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultModelError
from repro.faults.curability import CurabilityProfile


def test_simple_profile_draw():
    profile = CurabilityProfile().set_simple("rtu")
    failure = profile.draw("rtu", random.Random(1), at=0.0)
    assert failure.cure_set == frozenset(["rtu"])


def test_alternatives_respect_probabilities():
    profile = CurabilityProfile().set_alternatives(
        "pbcom",
        [(0.7, ["pbcom"]), (0.3, ["pbcom", "fedr"])],
    )
    rng = random.Random(7)
    joint = sum(
        1
        for _ in range(5000)
        if profile.draw("pbcom", rng, at=0.0).cure_set == frozenset(["pbcom", "fedr"])
    )
    assert joint / 5000 == pytest.approx(0.3, abs=0.03)


def test_probabilities_must_sum_to_one():
    with pytest.raises(FaultModelError):
        CurabilityProfile().set_alternatives("a", [(0.5, ["a"])])


def test_negative_probability_rejected():
    with pytest.raises(FaultModelError):
        CurabilityProfile().set_alternatives("a", [(-0.5, ["a"]), (1.5, ["a"])])


def test_cure_set_must_include_manifest():
    with pytest.raises(FaultModelError):
        CurabilityProfile().set_alternatives("a", [(1.0, ["b"])])


def test_unknown_component_rejected():
    profile = CurabilityProfile()
    with pytest.raises(FaultModelError):
        profile.draw("ghost", random.Random(0), at=0.0)
    with pytest.raises(FaultModelError):
        profile.alternatives_for("ghost")


def test_components_listing():
    profile = CurabilityProfile().set_simple("a").set_simple("b")
    assert profile.components() == ["a", "b"]


@given(
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=50, deadline=None)
def test_draw_always_one_of_configured_sets(p, seed):
    profile = CurabilityProfile().set_alternatives(
        "x", [(p, ["x"]), (1.0 - p, ["x", "y"])]
    )
    failure = profile.draw("x", random.Random(seed), at=0.0)
    assert failure.cure_set in (frozenset(["x"]), frozenset(["x", "y"]))
    assert failure.manifest_component == "x"
