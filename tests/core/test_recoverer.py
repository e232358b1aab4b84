"""Tests for REC: restart execution, escalation, FD/REC mutual recovery."""

import pytest

from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_iii, tree_v
from repro.types import ProcessState
from repro.xmlcmd.commands import FailureReport


@pytest.fixture
def station():
    s = MercuryStation(tree=tree_v(), seed=31)
    s.boot()
    return s


def test_rec_executes_minimal_restart(station):
    failure = station.injector.inject_simple("rtu")
    station.run_until_recovered(failure)
    orders = station.trace.filter(kind="restart_ordered")
    assert len(orders) == 1
    assert orders[0].data["cell"] == "R_rtu"
    assert orders[0].data["components"] == ("rtu",)


def test_rec_notifies_fd_begin_and_complete(station):
    failure = station.injector.inject_simple("rtu")
    station.run_until_recovered(failure)
    station.run_for(1.0)  # the complete order crosses the ctl channel
    assert station.trace.first("suppression_begin", components=("rtu",))
    assert station.trace.first("suppression_end", components=("rtu",))


def test_rec_closes_episode_after_observation(station):
    failure = station.injector.inject_simple("rtu")
    station.run_until_recovered(failure)
    station.run_for(station.config.observation_window + 1.0)
    assert station.trace.first("episode_closed", component="rtu")
    assert station.policy.episode_for("rtu") is None


def test_rec_escalates_uncured_failure():
    station = MercuryStation(tree=tree_iii(), seed=32, oracle="naive")
    station.boot()
    failure = station.injector.inject_joint("pbcom", ["fedr", "pbcom"])
    station.run_until_recovered(failure, timeout=400.0)
    cells = [r.data["cell"] for r in station.trace.filter(kind="restart_ordered")]
    assert cells == ["R_pbcom", "R_fedr_pbcom"]
    assert station.policy.escalations == 1


def test_rec_serialises_concurrent_episodes(station):
    f1 = station.injector.inject_simple("rtu")
    f2 = station.injector.inject_simple("fedr")
    station.run_until_recovered(f1)
    station.run_until_recovered(f2)
    station.run_until_quiescent()
    cells = sorted(r.data["cell"] for r in station.trace.filter(kind="restart_ordered"))
    assert cells == ["R_fedr", "R_rtu"]


def test_restart_log_records_decisions(station):
    failure = station.injector.inject_simple("mbus")
    station.run_until_recovered(failure)
    restarts = [d for d in station.rec.restart_log if d.action == "restart"]
    assert restarts and restarts[0].cell_id == "R_mbus"


def test_dead_rec_refuses_proactive_restart(station):
    """The liveness check lives in the engine, once, for both front ends."""
    station.manager.fail("rec")
    assert station.rec.request_restart("R_rtu", "rejuvenation") is False
    assert not station.trace.filter(kind="restart_ordered")
    station.run_for(15.0)  # FD restarts REC
    assert station.rec.request_restart("R_rtu", "rejuvenation") is True
    assert station.trace.first("restart_ordered", trigger="rejuvenation")


def test_proactive_restart_via_rec(station):
    accepted = station.rec.request_restart("R_rtu", reason="rejuvenation")
    assert accepted
    station.run_for(10.0)
    assert station.manager.get("rtu").start_count == 2
    # No failure was ever injected or detected; FD stayed quiet.
    assert station.trace.filter(kind="detection") == []
    order = station.trace.first("restart_ordered")
    assert order.data["trigger"] == "rejuvenation"


def test_proactive_restart_rejected_while_busy(station):
    station.injector.inject_simple("pbcom")
    station.run_for(2.0)  # joint restart in flight (~22s)
    assert not station.rec.request_restart("R_rtu")


def test_proactive_restart_rejected_when_member_down(station):
    station.injector.inject_simple("rtu")
    station.run_for(0.2)  # not yet detected, but already down
    assert not station.rec.request_restart("R_rtu")
    station.run_until_quiescent()


def test_rejuvenation_resets_pbcom_age(station):
    """The Mercury payoff: a proactive pbcom restart resets disconnect age."""
    station.aging._threshold = 100  # keep pbcom from aging out mid-test
    for _ in range(3):
        failure = station.injector.inject_simple("fedr")
        station.run_until_recovered(failure)
        station.run_until_quiescent()
    assert station.aging.age == 3
    assert station.rec.request_restart("R_fedr_pbcom", reason="rejuvenation")
    station.run_for(30.0)
    assert station.aging.age == 0
    assert station.all_station_running()


def test_abstract_supervisor_proactive_restart():
    station = MercuryStation(tree=tree_v(), seed=102, supervisor="abstract")
    station.manager.start_all(station.station_components)
    station.kernel.run(until=60.0)
    assert station.abstract_supervisor.request_restart("R_rtu", "rejuvenation")
    station.run_for(10.0)
    assert station.manager.get("rtu").start_count == 2
    assert station.all_station_running()


# ----------------------------------------------------------------------
# FD/REC mutual recovery (§2.2's special cases)
# ----------------------------------------------------------------------


def test_rec_restarts_failed_fd(station):
    station.manager.fail("fd")
    station.run_for(15.0)
    assert station.manager.get("fd").is_running
    assert station.trace.first("fd_restart") is not None


def test_fd_restarts_failed_rec(station):
    station.manager.fail("rec")
    station.run_for(15.0)
    assert station.manager.get("rec").is_running
    assert station.trace.first("rec_restart") is not None


def test_station_recovers_component_failure_after_fd_bounce(station):
    station.manager.fail("fd")
    station.run_for(15.0)
    failure = station.injector.inject_simple("rtu")
    recovery = station.run_until_recovered(failure)
    assert recovery < 60.0


def test_station_recovers_component_failure_after_rec_bounce(station):
    station.manager.fail("rec")
    station.run_for(15.0)
    failure = station.injector.inject_simple("rtu")
    recovery = station.run_until_recovered(failure)
    assert recovery < 60.0


def test_fd_and_rec_do_not_flap_when_healthy(station):
    station.run_for(120.0)
    assert station.trace.first("fd_restart") is None
    assert station.trace.first("rec_restart") is None
    assert station.manager.get("fd").start_count == 1
    assert station.manager.get("rec").start_count == 1


def test_component_down_across_fd_bounce_recovered_after_grace(station):
    """Blind-spot regression: rtu fails, then FD dies before reporting it.
    The fresh FD never saw rtu alive, but the warm-up grace deadline lets
    it judge (and report) the still-dead component eventually."""
    failure = station.injector.inject_simple("rtu")
    station.run_for(0.1)
    station.manager.fail("fd")
    station.run_for(station.fd.warmup_grace + 30.0)
    assert station.manager.get("rtu").is_running
    assert not station.injector.is_active(failure.failure_id)


def test_both_fd_and_rec_down_is_unrecoverable(station):
    """The paper's stated limitation: FD and REC failing together."""
    station.manager.fail("fd")
    station.manager.fail("rec")
    station.run_for(60.0)
    assert station.manager.get("fd").state is ProcessState.FAILED
    assert station.manager.get("rec").state is ProcessState.FAILED


def test_rec_serves_a_report_about_a_member_that_failed_anew(station):
    """REC filters reports through the engine's ``expects_down``: a batch
    member that came back and failed again is re-kicked under the batch;
    one that fails again after its re-kick is a real failure, queued
    behind the action and decided at its drain."""
    station.injector.inject_joint("ses", ["ses", "str"])
    engine = station.rec.engine
    while engine.action is None or not engine.action.ready:
        assert station.kernel.step()
    action = engine.action
    assert action.batch == frozenset({"ses", "str"}) and action.ready == {"str"}
    assert engine.expects_down("ses") and not engine.expects_down("str")
    station.manager.fail("str")
    assert engine.expects_down("str")  # the engine re-kicks it at once
    while station.manager.get("str").state is not ProcessState.STARTING:
        assert station.kernel.step()
    station.manager.kill("str")
    assert engine.action is action and "str" in action.abandoned
    assert not engine.expects_down("str")
    report = FailureReport(
        sender="fd", target="rec", failed_components=("str",),
        detected_at=station.kernel.now,
    )
    assert station.fd._ctl_send(report)
    while engine.action is action:
        assert station.kernel.step()
    complete = station.trace.first("restart_complete", cell="R_ses_str")
    orders = station.trace.filter(kind="restart_ordered")
    assert [r.data["trigger"] for r in orders] == ["ses", "str"]
    assert orders[1].time == complete.time  # served by the drain, not re-detected
