"""Tests for the restart policy: episodes, escalation, budgets."""

import pytest

from repro.core.oracle import LearningOracle, NaiveOracle
from repro.core.policy import RestartPolicy
from repro.mercury.trees import tree_iii


def make_policy(tree=None, oracle=None, **kw):
    return RestartPolicy(tree or tree_iii(), oracle or NaiveOracle(), **kw)


def test_fresh_failure_gets_oracle_recommendation():
    policy = make_policy()
    decision = policy.report_failure("rtu", now=10.0)
    assert decision.action == "restart"
    assert decision.cell_id == "R_rtu"
    assert decision.components == frozenset(["rtu"])


def test_unknown_component_ignored():
    policy = make_policy()
    decision = policy.report_failure("ghost", now=0.0)
    assert decision.action == "ignore"


def test_duplicate_report_while_deciding_ignored():
    policy = make_policy()
    policy.report_failure("rtu", now=0.0)
    decision = policy.report_failure("rtu", now=0.1)
    assert decision.action == "ignore"


def test_report_during_restart_ignored():
    policy = make_policy()
    decision = policy.report_failure("rtu", now=0.0)
    policy.restart_began(decision.components, now=0.1)
    assert policy.report_failure("rtu", now=0.5).action == "ignore"


def test_persisting_failure_escalates_to_parent():
    policy = make_policy()
    first = policy.report_failure("pbcom", now=0.0)
    assert first.cell_id == "R_pbcom"
    policy.restart_began(first.components, now=0.5)
    policy.restart_completed(first.components, now=21.0)
    second = policy.report_failure("pbcom", now=22.0)
    assert second.action == "restart"
    assert second.cell_id == "R_fedr_pbcom"
    assert policy.escalations == 1


def test_escalation_chain_reaches_root_then_gives_up():
    policy = make_policy()
    cells = []
    now = 0.0
    for _ in range(4):
        decision = policy.report_failure("pbcom", now=now)
        if decision.action != "restart":
            cells.append(decision.action)
            break
        cells.append(decision.cell_id)
        policy.restart_began(decision.components, now + 1)
        policy.restart_completed(decision.components, now + 2)
        now += 10.0
    assert cells == ["R_pbcom", "R_fedr_pbcom", "R_mercury", "give_up"]
    assert policy.give_ups == 1


def test_observation_expiry_closes_episode():
    policy = make_policy()
    decision = policy.report_failure("rtu", now=0.0)
    policy.restart_began(decision.components, 0.5)
    policy.restart_completed(decision.components, 6.0)
    assert policy.observation_expired("rtu", now=9.0)
    # A later failure opens a fresh episode at the leaf again.
    fresh = policy.report_failure("rtu", now=20.0)
    assert fresh.cell_id == "R_rtu"
    assert policy.escalations == 0


def test_observation_expiry_noop_when_not_observing():
    policy = make_policy()
    assert not policy.observation_expired("rtu", now=1.0)
    policy.report_failure("rtu", now=2.0)
    assert not policy.observation_expired("rtu", now=3.0)  # still deciding


def test_budget_exhausts_before_root_on_deep_path():
    """pbcom's escalation path has 3 levels; a budget of 2 trips first."""
    policy = make_policy(budget=2, budget_window=100.0)
    now = 0.0
    actions = []
    reasons = []
    for _ in range(5):
        decision = policy.report_failure("pbcom", now=now)
        actions.append(decision.action)
        reasons.append(decision.reason)
        if decision.action != "restart":
            break
        policy.restart_began(decision.components, now + 0.5)
        policy.restart_completed(decision.components, now + 1.0)
        now += 5.0
    assert actions == ["restart", "restart", "give_up"]
    assert "budget" in reasons[-1]


def test_budget_resets_after_cured_episode():
    policy = make_policy(budget=2, budget_window=1000.0)
    now = 0.0
    for _ in range(6):  # 6 distinct cured episodes, well over the budget
        decision = policy.report_failure("rtu", now=now)
        assert decision.action == "restart"
        policy.restart_began(decision.components, now + 0.5)
        policy.restart_completed(decision.components, now + 1.0)
        assert policy.observation_expired("rtu", now + 5.0)
        now += 10.0


def test_collateral_restarts_do_not_accrue_budget():
    """Components bounced as part of a group restart are not suspected."""
    policy = make_policy(tree_iii(), budget=2, budget_window=1000.0)
    now = 0.0
    for _ in range(4):
        decision = policy.report_failure("pbcom", now=now)
        assert decision.action == "restart"
        policy.restart_began(decision.components, now + 0.5)
        policy.restart_completed(decision.components, now + 1.0)
        policy.observation_expired("pbcom", now + 5.0)
        now += 10.0
    # fedr was restarted by the escalated joint cell in none of these
    # (leaf restarts), but even after group restarts it has no episode:
    decision = policy.report_failure("fedr", now=now)
    assert decision.action == "restart"


def test_restarts_in_window_counts():
    policy = make_policy(budget=10, budget_window=50.0)
    decision = policy.report_failure("rtu", now=0.0)
    policy.restart_began(decision.components, 0.0)
    assert policy.restarts_in_window("rtu", now=10.0) == 1
    assert policy.restarts_in_window("rtu", now=100.0) == 0
    assert policy.restarts_in_window("never", now=0.0) == 0


def test_learning_oracle_gets_outcomes():
    oracle = LearningOracle(min_samples=1, confidence=0.5)
    policy = make_policy(tree_iii(), oracle)
    decision = policy.report_failure("pbcom", now=0.0)
    policy.restart_began(decision.components, 0.5)
    policy.restart_completed(decision.components, 21.0)
    # Failure persists -> negative outcome for R_pbcom, escalate.
    second = policy.report_failure("pbcom", now=22.0)
    policy.restart_began(second.components, 22.5)
    policy.restart_completed(second.components, 44.0)
    assert policy.observation_expired("pbcom", 50.0)
    estimates = oracle.f_estimates("pbcom")
    assert estimates["R_pbcom"] == 0.0
    assert estimates["R_fedr_pbcom"] == 1.0
    # Next time the oracle jumps straight to the joint cell.
    assert policy.report_failure("pbcom", now=60.0).cell_id == "R_fedr_pbcom"


def test_invalid_budget_rejected():
    with pytest.raises(ValueError):
        make_policy(budget=0)
