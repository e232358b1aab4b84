"""Tests for the chaos scenario catalogue and plan building."""

import random

import pytest

from repro.chaos.scenarios import (
    SCENARIOS,
    Injection,
    Scenario,
    ScenarioPlan,
    get_scenario,
)

NON_SPLIT = ("mbus", "fedrcom", "ses", "str", "rtu")
SPLIT = ("mbus", "fedr", "pbcom", "ses", "str", "rtu")


def test_catalogue_names():
    assert set(SCENARIOS) == {
        "cascade", "storm", "flapping", "mixed",
        "lossy", "partition", "zombie-fleet",
        "store-outage", "rogue-oracle-crash",
        "blind", "hung-fd", "hung-rec", "detection",
    }
    for name, scenario in SCENARIOS.items():
        assert scenario.name == name
        assert scenario.description


def test_get_scenario_unknown_lists_choices():
    with pytest.raises(KeyError, match="cascade"):
        get_scenario("nope")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("components", [NON_SPLIT, SPLIT])
def test_plans_are_valid_for_both_generations(name, components):
    plan = SCENARIOS[name].build(random.Random(9), components)
    assert plan.injections
    assert plan.horizon > 0
    times = [injection.at for injection in plan.injections]
    assert times == sorted(times)  # build() sorts
    assert all(at >= 0.0 for at in times)
    assert max(times) < plan.horizon  # recovery tail fits inside the horizon
    for group in plan.groups:
        assert len(group.members) >= 2


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_same_rng_same_plan(name):
    scenario = SCENARIOS[name]
    assert scenario.build(random.Random(7), SPLIT) == scenario.build(
        random.Random(7), SPLIT
    )
    assert scenario.build(random.Random(7), SPLIT) != scenario.build(
        random.Random(8), SPLIT
    )


def test_storm_targets_the_radio_proxy():
    split_targets = {
        i.component for i in SCENARIOS["storm"].build(random.Random(1), SPLIT).injections
    }
    non_split_targets = {
        i.component
        for i in SCENARIOS["storm"].build(random.Random(1), NON_SPLIT).injections
    }
    assert "pbcom" in split_targets and "fedrcom" not in split_targets
    assert "fedrcom" in non_split_targets and "pbcom" not in non_split_targets


def test_mixed_uses_tree_appropriate_cure_set():
    split_plan = SCENARIOS["mixed"].build(random.Random(1), SPLIT)
    joint = [i for i in split_plan.injections if i.cure_set is not None]
    assert joint and joint[0].cure_set == ("fedr", "pbcom")
    non_split_plan = SCENARIOS["mixed"].build(random.Random(1), NON_SPLIT)
    joint = [i for i in non_split_plan.injections if i.cure_set is not None]
    assert joint and joint[0].cure_set == ("ses", "str")


def test_build_rejects_negative_times():
    bad = Scenario(
        "bad",
        "injects before the trial starts",
        lambda rng, components: ScenarioPlan(
            injections=(Injection(at=-1.0, component="rtu"),)
        ),
    )
    with pytest.raises(ValueError, match="before trial start"):
        bad.build(random.Random(1), SPLIT)


# ----------------------------------------------------------------------
# network ops (the lossy fault fabric riding on scenario plans)
# ----------------------------------------------------------------------

from repro.chaos.scenarios import NetOp


def test_netop_validation():
    with pytest.raises(ValueError, match="kind"):
        NetOp(at=0.0, kind="teleport")
    with pytest.raises(ValueError, match="name both"):
        NetOp(at=0.0, kind="partition", a="fd", b="*", duration=5.0)
    with pytest.raises(ValueError, match="duration"):
        NetOp(at=0.0, kind="partition", a="fd", b="mbus")


def test_net_ops_require_uses_network_flag():
    bad = Scenario(
        "bad-net",
        "plans net ops without declaring a network",
        lambda rng, components: ScenarioPlan(
            injections=(Injection(at=1.0, component="rtu"),),
            net_ops=(NetOp(at=0.5, drop=0.5),),
        ),
    )
    with pytest.raises(ValueError, match="uses_network"):
        bad.build(random.Random(1), SPLIT)


def test_lossy_scenario_declares_its_needs():
    scenario = SCENARIOS["lossy"]
    assert scenario.uses_network
    overrides = dict(scenario.station_overrides)
    assert overrides["timeout_policy"] == "adaptive"
    plan = scenario.build(random.Random(2), SPLIT)
    assert plan.net_ops and plan.net_ops[0].kind == "degrade"
    assert all(op.at >= 0 for op in plan.net_ops)


def test_partition_scenario_names_both_endpoints():
    plan = SCENARIOS["partition"].build(random.Random(2), SPLIT)
    partitions = [op for op in plan.net_ops if op.kind == "partition"]
    assert partitions
    assert all(op.a != "*" and op.b != "*" for op in partitions)
    assert all(op.duration and op.duration > 0 for op in partitions)


def test_zombie_fleet_is_pure_fail_slow():
    plan = SCENARIOS["zombie-fleet"].build(random.Random(2), SPLIT)
    assert not SCENARIOS["zombie-fleet"].uses_network
    kinds = {injection.kind for injection in plan.injections}
    assert kinds <= {"hang", "zombie"}
