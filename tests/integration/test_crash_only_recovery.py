"""Station-level tests for the crash-only recovery plane.

Three contracts, each pinned end to end on a full Mercury station:

* **graceful degradation** — a microreboot planned against a dead store
  detects the outage within the timeout ladder, falls back to a plain
  cold restart, and the extra session loss is accounted honestly (the
  regression the strategy comparison depends on);
* **recursive self-recovery** — REC shot mid-recovery is restarted
  crash-only by FD's watchdog tier, the fresh incarnation reconciles the
  half-done episode, and the stale pre-crash plan is *fenced* by the
  generation guard instead of executing;
* **oracle continuity** — the learning oracle's estimates ride the store
  across a REC restart (and are honestly lost when the store is down).

The plane is the same on a station without strategies; the last test
pins that a classic station survives a REC kill mid-episode.
"""

import pytest

from repro.chaos.invariants import InvariantChecker
from repro.core.oracle import LearningOracle
from repro.faults.store_faults import StoreFaultModel
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_iii, tree_v


def _recover_ses(seed, store_down):
    """One ses failure on tree III under the microreboot strategy; the
    store is optionally crashed for the whole recovery window."""
    station = MercuryStation(tree=tree_iii(), seed=seed, strategy="microreboot")
    station.boot()
    station.run_until_quiescent()
    station.run_for(5.0)  # let the ses/str handshake externalize sessions
    assert station.session_store.has_session("ses")
    if store_down:
        model = StoreFaultModel(station.kernel)
        station.session_store.attach_faults(model)
        model.crash(60.0)
    failure = station.injector.inject_simple("ses")
    station.run_until_recovered(failure)
    station.run_until_quiescent()
    assert station.all_station_running()
    return station


def test_microreboot_dead_store_falls_back_to_restart():
    """Satellite regression: same seed, same fault — the only difference
    is the store's health, and the delta must be visible as a fallback
    plus extra session loss."""
    healthy = _recover_ses(101, store_down=False)
    degraded = _recover_ses(101, store_down=True)

    # Healthy store: the microreboot restored the externalized session.
    assert not healthy.trace.filter(kind="strategy_fallback")
    assert healthy.trace.filter(kind="session_restored", component="ses")
    lost_healthy = healthy.session_store.sessions_lost

    # Dead store: the plan probe burned the retry ladder and degraded.
    # (The cold ses restart induces the correlated str failure, whose
    # recovery falls back too — every fallback must hold the discipline.)
    fallbacks = degraded.trace.filter(kind="strategy_fallback")
    assert fallbacks
    for record in fallbacks:
        assert record.data["strategy"] == "microreboot"
        assert record.data["fallback"] == "restart"
        assert record.data["reason"] == "store-unavailable"
        assert record.data["waited"] == pytest.approx(0.35)  # crash ladder
    assert fallbacks[0].data["cell"] == "R_ses"
    # Announced at the same instant as (and before) the order it explains.
    order = degraded.trace.filter(kind="restart_ordered")[0]
    assert fallbacks[0].time == pytest.approx(order.time)
    assert order.data["strategy"] == "microreboot"
    assert not degraded.trace.filter(kind="session_restored", component="ses")

    # The honest cost: the cold fallback dropped the session the healthy
    # microreboot would have preserved.
    lost_degraded = degraded.session_store.sessions_lost
    assert lost_healthy == 0
    assert lost_degraded > lost_healthy
    assert degraded.trace.filter(kind="session_lost", component="ses")


def test_rec_killed_mid_recovery_fences_stale_plan():
    """The ISSUE-pinned fencing regression on the full FD/REC pair: REC
    dies with a restart action in flight; the restarted incarnation must
    reconcile the episode and fence the dead incarnation's callbacks."""
    station = MercuryStation(tree=tree_v(), seed=202, strategy="microreboot")
    station.boot()
    station.run_until_quiescent()
    station.run_for(5.0)
    failure = station.injector.inject_simple("rtu")
    deadline = station.kernel.now + 60.0
    while not station.trace.filter(kind="restart_ordered"):
        assert station.kernel.now < deadline
        station.kernel.step()
    # Shoot REC while its plan is mid-flight — late enough that the rtu
    # restart completes at the manager level while REC is down, so the
    # fresh incarnation reconciles the episode to observing and orders
    # nothing new.  That leaves the dead incarnation's restart watchdog
    # (authored with the old generation) as the one stale callback, due
    # at order + restart_timeout; it must fence, not re-kick.
    ordered_at = station.kernel.now
    station.run_for(3.5)
    station.injector.inject_simple("rec", kind="flap")
    station.run_for(120.0)

    restarted = station.trace.filter(kind="supervisor_restarted")
    assert restarted and restarted[0].data["supervisor"] == "rec"
    assert restarted[0].data["generation"] >= 2
    assert restarted[0].data["reconciled"] == 1  # the rtu episode survived
    fenced = station.trace.filter(kind="plan_fenced")
    assert fenced, "the dead incarnation's restart watchdog never fenced"
    assert fenced[0].data["stale_generation"] < fenced[0].data["generation"]
    assert fenced[0].time == pytest.approx(ordered_at + 90.0)  # restart_timeout
    # Fenced means fenced: the stale watchdog ordered nothing new.
    assert len(station.trace.filter(kind="restart_ordered")) == 1
    # FD dropped its stale suppression view when it restarted REC.
    ends = station.trace.filter(kind="suppression_end")
    assert any(r.data.get("reason") == "supervisor-restart" for r in ends)
    station.run_until_quiescent()
    assert station.all_station_running()
    assert not station.injector.is_active(failure.failure_id)


def test_rec_killed_inside_observation_window_closes_episode_once():
    """A restarted REC re-arms the observation expiry; the dead
    incarnation's timer must not also fire and close the episode early
    (``observation_expired`` does not check elapsed time itself)."""
    station = MercuryStation(tree=tree_v(), seed=606, strategy="microreboot")
    station.boot()
    station.run_until_quiescent()
    station.run_for(5.0)
    failure = station.injector.inject_simple("rtu")
    station.run_until_recovered(failure)
    while not station.trace.filter(kind="restart_complete"):
        assert station.kernel.step()
    completed_at = station.kernel.now
    window = station.config.observation_window
    station.run_for(0.2 * window)
    station.injector.inject_simple("rec", kind="flap")
    station.run_for(4 * window + 30.0)

    restarted = station.trace.filter(kind="supervisor_restarted")
    assert len(restarted) == 1
    rearmed_at = restarted[0].time
    assert completed_at < rearmed_at
    closed = station.trace.filter(kind="episode_closed", component="rtu")
    assert len(closed) == 1
    assert closed[0].time == pytest.approx(rearmed_at + window)
    assert not station.policy.open_episodes()


def test_rec_restart_rebuilds_learning_oracle_from_store():
    oracle = LearningOracle(min_samples=1, confidence=0.5)
    station = MercuryStation(
        tree=tree_v(), seed=303, strategy="microreboot", oracle=oracle
    )
    station.boot()
    station.run_until_quiescent()
    station.run_for(2.0)
    failure = station.injector.inject_simple("rtu")
    station.run_until_recovered(failure)
    station.run_until_quiescent()
    assert station.session_store.load_snapshot("oracle") is not None
    trained = oracle.export_state()
    assert trained["attempts"]

    station.injector.inject_simple("rec", kind="flap")
    station.run_for(30.0)
    rebuilt = station.trace.filter(kind="oracle_rebuilt")
    assert rebuilt and rebuilt[-1].data["origin"] == "store"
    assert rebuilt[-1].data["entries"] >= 1
    assert oracle.export_state() == trained  # estimates survived the crash
    station.run_until_quiescent()
    assert station.all_station_running()


def test_rec_restart_with_dead_store_starts_naive():
    oracle = LearningOracle(min_samples=1, confidence=0.5)
    station = MercuryStation(
        tree=tree_v(), seed=404, strategy="microreboot", oracle=oracle
    )
    station.boot()
    station.run_until_quiescent()
    station.run_for(2.0)
    failure = station.injector.inject_simple("rtu")
    station.run_until_recovered(failure)
    station.run_until_quiescent()
    assert oracle.export_state()["attempts"]

    model = StoreFaultModel(station.kernel)
    station.session_store.attach_faults(model)
    model.crash(30.0)
    station.injector.inject_simple("rec", kind="flap")
    station.run_for(10.0)
    rebuilt = station.trace.filter(kind="oracle_rebuilt")
    assert rebuilt and rebuilt[-1].data["origin"] == "naive"
    # Honest amnesia: the estimates died with the process.
    assert not oracle.export_state()["attempts"]
    station.run_for(60.0)
    station.run_until_quiescent()
    assert station.all_station_running()


def test_classic_station_recovers_from_rec_killed_mid_episode():
    """The plane is not opt-in: a strategy-less station whose REC is shot
    mid-episode rebuilds REC crash-only, and the episode REC died holding
    is reconciled and closed instead of staying ``restarting`` forever."""
    station = MercuryStation(tree=tree_v(), seed=505)
    checker = InvariantChecker(station.tree)
    station.kernel.trace.add_sink(checker)
    station.boot()
    station.run_until_quiescent()
    station.run_for(2.0)
    failure = station.injector.inject_simple("ses")
    station.run_for(1.0)
    station.injector.inject_simple("rec", kind="flap")
    station.run_for(120.0)
    station.run_until_quiescent()
    assert station.all_station_running()
    assert not station.injector.is_active(failure.failure_id)
    restarted = station.trace.filter(kind="supervisor_restarted")
    assert [r.data["supervisor"] for r in restarted] == ["rec"]
    assert not station.policy.open_episodes()
    # FD dropped the dead REC's suppression when it restarted REC.
    ends = station.trace.filter(kind="suppression_end")
    assert any(r.data.get("reason") == "supervisor-restart" for r in ends)
    assert checker.finalize(station.kernel.now) == []
