"""Direct tests for the RecoveryEngine — no transport, no detector.

The test *is* the front end: it forwards process-manager ``ready`` events
to :meth:`RecoveryEngine.member_ready`, declares failures by calling
:meth:`RecoveryEngine.report_failure`, and reads what the engine did off
the kernel trace (source ``"engine"``).  Everything the two supervisors
share is pinned here once; their own suites keep only what is theirs (ctl
wire, FD watchdog, sampled latency, rescan, the watchdog class).
"""

import pytest

from repro.core.oracle import LearningOracle, PerfectOracle
from repro.core.policy import RestartPolicy
from repro.core.recovery_engine import RecoveryEngine
from repro.core.recovery_strategies import StrategyMap
from repro.core.tree import RestartTree, cell
from repro.faults.injector import FaultInjector
from repro.faults.store_faults import StoreFaultModel
from repro.mercury.session_store import SessionStore
from repro.types import ProcessState, Severity

from tests.conftest import spawn_simple


def _tree():
    return RestartTree(
        cell("root", children=[
            cell("R_a", ["a"]),
            cell("R_bc", children=[cell("R_b", ["b"]), cell("R_c", ["c"])]),
        ]),
        name="rig",
    )


class Rig:
    """Three processes, an injector, and an engine with a bare ready feed."""

    def __init__(self, kernel, manager, *, oracle=None, work=1.0, **engine_kwargs):
        self.kernel, self.manager = kernel, manager
        for name in ("a", "b", "c"):
            spawn_simple(manager, name, work=work)
        manager.start_all()
        kernel.run()
        self.injector = FaultInjector(kernel, manager)
        self.policy = RestartPolicy(_tree(), oracle or PerfectOracle(manager))
        engine_kwargs.setdefault("restart_timeout", 30.0)
        self.announced = []
        self.engine = RecoveryEngine(
            kernel, manager, self.policy, name="engine",
            observation_window=2.0, announce=self._announce, **engine_kwargs,
        )
        self.engine.start()
        manager.subscribe(self._on_lifecycle)

    def _on_lifecycle(self, process, event):
        if event == "ready":
            self.engine.member_ready(process.name)

    def _announce(self, cell_id, batch, reason):
        self.announced.append((reason, cell_id, batch))

    def kinds(self, kind):
        return self.kernel.trace.filter(kind=kind, source="engine")

    def cells(self):
        return [r.data["cell"] for r in self.kinds("restart_ordered")]

    def fail(self, component, **kwargs):
        """Inject a failure and declare it, as a zero-latency detector would."""
        if "cure_set" in kwargs:
            failure = self.injector.inject_joint(component, kwargs["cure_set"])
        else:
            failure = self.injector.inject_simple(component)
        self.engine.report_failure(component)
        return failure


@pytest.fixture
def rig(kernel, manager):
    return Rig(kernel, manager)


# ----------------------------------------------------------------------
# decide → restart → observe
# ----------------------------------------------------------------------


def test_report_runs_one_action_and_closes_the_episode(kernel, rig):
    failure = rig.fail("a")
    assert rig.engine.busy and rig.engine.action.batch == frozenset({"a"})
    kernel.run(until=kernel.now + 1.5)
    assert not rig.engine.busy
    assert not rig.injector.is_active(failure.failure_id)
    assert rig.cells() == ["R_a"]
    assert rig.announced == [("begin", "R_a", ("a",)), ("complete", "R_a", ("a",))]
    assert [d.action for d in rig.engine.restart_log] == ["restart"]
    assert rig.policy.open_episodes()
    kernel.run(until=kernel.now + 2.5)  # the observation window
    assert not rig.policy.open_episodes()


def test_dialect_selects_the_golden_pinned_extras(kernel, rig):
    """The one dialect both front ends speak answers "who decided what"."""
    rig.engine.report_failure("ghost")  # not in the tree: the policy ignores it
    assert [r.data["component"] for r in rig.kinds("decision_ignore")] == ["ghost"]
    rig.fail("a")
    assert rig.kinds("restart_ordered")[0].data["procedure"] == "restart"
    kernel.run(until=kernel.now + 5.0)
    assert [r.data["component"] for r in rig.kinds("episode_closed")] == ["a"]


# ----------------------------------------------------------------------
# generation + action-sequence fencing (guard order pinned)
# ----------------------------------------------------------------------


def test_stale_generation_with_current_seq_is_fenced(kernel, rig):
    rig.fail("a")
    ordered_at = kernel.now
    rig.engine.stop()
    kernel.run(until=ordered_at + 5.0)  # "a" restarts underneath; nobody watches
    rig.engine.new_incarnation()
    restarted = rig.kinds("supervisor_restarted")[0].data
    assert restarted["supervisor"] == "engine" and restarted["generation"] == 2
    assert (restarted["reconciled"], restarted["dropped"]) == (1, 0)
    kernel.run(until=ordered_at + 40.0)
    # The dead incarnation's watchdog is still the latest step (seq
    # matches) but its author is gone: fenced, and it re-kicks nothing.
    fenced = rig.kinds("plan_fenced")
    assert len(fenced) == 1 and fenced[0].time == pytest.approx(ordered_at + 30.0)
    assert fenced[0].severity is Severity.WARNING
    assert fenced[0].data == {"generation": 2, "stale_generation": 1}
    assert not rig.kinds("restart_rekick") and rig.cells() == ["R_a"]
    assert not rig.policy.open_episodes()  # reconciled, observed, closed


def test_superseded_seq_is_silent_even_with_a_stale_generation(kernel, rig):
    rig.fail("a")
    ordered_at = kernel.now
    rig.engine.stop()
    rig.engine.new_incarnation()  # "a" still down: its episode is dropped
    assert rig.kinds("supervisor_restarted")[0].data["dropped"] == 1
    rig.engine.report_failure("a")  # the detector's re-report: a new step
    kernel.run(until=ordered_at + 40.0)
    # Seq is checked first: the old watchdog was superseded, so it dies
    # silently although its generation is stale too.
    assert not rig.kinds("plan_fenced")
    assert rig.cells() == ["R_a", "R_a"]


def test_finished_action_invalidates_its_watchdog_silently(kernel, rig):
    rig.fail("a")
    kernel.run(until=kernel.now + 40.0)
    assert not rig.kinds("plan_fenced") and not rig.kinds("restart_rekick")


def test_dead_engine_refuses_proactive_restart(kernel, rig):
    """Drift fix: a dead supervisor that was idle at death must not accept
    a rejuvenation round it can never finish."""
    rig.engine.stop()
    assert rig.engine.request_restart("R_a", "rejuvenation") is False
    assert not rig.cells() and rig.manager.all_running()
    rig.engine.start()
    assert rig.engine.request_restart("no-such-cell") is False
    assert rig.engine.request_restart("R_a", "rejuvenation") is True
    assert rig.engine.request_restart("R_bc") is False  # busy: never queued
    assert rig.kinds("restart_ordered")[0].data["trigger"] == "rejuvenation"


# ----------------------------------------------------------------------
# observation expiry across incarnations
# ----------------------------------------------------------------------


def _crash_inside_observation(kernel, rig):
    rig.fail("a")
    kernel.run(until=kernel.now + 1.5)  # restart complete, observing till +2.0
    completed_at = rig.kinds("restart_complete")[0].time
    kernel.run(until=completed_at + 1.0)
    rig.engine.stop()
    return completed_at


def test_stale_observation_timer_dropped_across_incarnations(kernel, rig):
    completed_at = _crash_inside_observation(kernel, rig)
    rig.engine.new_incarnation()
    rearmed_at = kernel.now
    kernel.run(until=completed_at + 2.5)  # the dead incarnation's timer is past
    assert not rig.kinds("episode_closed") and rig.policy.open_episodes()
    kernel.run(until=rearmed_at + 2.5)
    closed = rig.kinds("episode_closed")
    assert len(closed) == 1 and closed[0].time == pytest.approx(rearmed_at + 2.0)


# ----------------------------------------------------------------------
# plan → execute → verify
# ----------------------------------------------------------------------


def _microreboot_rig_with_dead_store(kernel, manager):
    store = SessionStore()
    rig = Rig(kernel, manager, session_store=store,
              strategies=StrategyMap(default="microreboot"))
    faults = StoreFaultModel(kernel)
    store.attach_faults(faults)
    faults.crash(20.0)
    return rig, faults


def test_deferred_execute_waits_out_the_decision_delay(kernel, manager):
    rig, faults = _microreboot_rig_with_dead_store(kernel, manager)
    ladder = sum(faults.retry_backoff)
    assert rig.engine.request_restart("R_a") is True
    ordered_at = kernel.now
    fallback = rig.kinds("strategy_fallback")
    assert len(fallback) == 1 and fallback[0].time == ordered_at
    assert fallback[0].data["strategy"] == "microreboot"
    assert fallback[0].data["fallback"] == "restart"
    assert fallback[0].data["waited"] == pytest.approx(ladder)
    # Ordered and announced now; the kill itself waits out the ladder.
    assert rig.announced == [("begin", "R_a", ("a",))]
    kernel.run(until=ordered_at + ladder - 0.01)
    assert manager.get("a").is_running
    kernel.run(until=ordered_at + ladder + 0.01)
    assert manager.get("a").state is ProcessState.STARTING
    kernel.run(until=ordered_at + 5.0)
    assert manager.all_running() and not rig.engine.busy


def test_deferred_execute_of_a_dead_incarnation_is_fenced(kernel, manager):
    rig, _ = _microreboot_rig_with_dead_store(kernel, manager)
    rig.engine.request_restart("R_a")
    rig.engine.stop()
    rig.engine.new_incarnation()
    kernel.run(until=kernel.now + 5.0)
    assert len(rig.kinds("plan_fenced")) == 1
    assert manager.get("a").start_count == 1  # the stale plan never ran


def test_watchdog_rekicks_terminal_stragglers(kernel, manager):
    rig = Rig(kernel, manager, work=5.0, restart_timeout=10.0)
    rig.fail("b", cure_set=["b", "c"])  # R_bc: both restart, 5 s each
    kernel.run(until=kernel.now + 2.0)
    assert manager.get("c").state is ProcessState.STARTING
    manager.kill("c")  # only an external actor can kill a starting process
    kernel.run(until=kernel.now + 30.0)
    rekicks = rig.kinds("restart_rekick")
    assert [r.data["components"] for r in rekicks] == [("c",)]
    assert manager.all_running() and not rig.engine.busy


def test_rekick_dialect_warns_before_the_start(kernel, manager):
    rig = Rig(kernel, manager, work=5.0, restart_timeout=10.0)
    rig.fail("a")
    kernel.run(until=kernel.now + 2.0)
    manager.kill("a")
    kernel.run(until=kernel.now + 30.0)
    rekick = rig.kinds("restart_rekick")[0]
    assert rekick.severity is Severity.WARNING
    records = list(kernel.trace.filter(since=rekick.time, until=rekick.time))
    starts = [r for r in records if r.source != "engine"]
    assert starts and records.index(rekick) < records.index(starts[0])


def test_verify_ladder_widens_until_the_joint_failure_is_cured(kernel, manager):
    rig = Rig(kernel, manager, strategies=StrategyMap(default="bisect"))
    failure = rig.fail("b", cure_set=["b", "c"])
    kernel.run(until=kernel.now + 10.0)
    assert not rig.injector.is_active(failure.failure_id)
    # One action, one order, one completion — the ladder ran inside it.
    assert rig.cells() == ["R_bc"]
    assert rig.kinds("strategy_planned")[0].data["expecting"] == ("b",)
    probes = rig.kinds("bisect_probe")
    assert [(p.data["round"], p.data["components"]) for p in probes] == [(1, ("b", "c"))]
    verified = rig.kinds("strategy_verified")
    assert len(verified) == 1 and verified[0].data["rounds"] == 1
    assert len(rig.kinds("restart_complete")) == 1
    assert [reason for reason, _, _ in rig.announced] == ["begin", "complete"]


# ----------------------------------------------------------------------
# pending reports: queue, retract, drain
# ----------------------------------------------------------------------


def test_drain_skips_reports_the_completed_restart_covered(kernel, rig):
    rig.fail("b", cure_set=["b", "c"])  # R_bc in flight
    rig.engine.report_failure("c")  # fallout of our own restart, queued
    rig.fail("a")  # a genuine second failure, queued
    assert rig.cells() == ["R_bc"]
    kernel.run(until=kernel.now + 10.0)
    # "c" came back with the batch: stale, skipped.  "a" was still down.
    assert rig.cells() == ["R_bc", "R_a"]
    assert [d.cell_id for d in rig.engine.restart_log] == ["R_bc", "R_a"]
    assert rig.manager.all_running()


def test_drain_tolerates_reports_about_unknown_components(kernel, rig):
    rig.fail("a")
    rig.engine.report_failure("ghost")
    kernel.run(until=kernel.now + 10.0)
    assert [d.action for d in rig.engine.restart_log] == ["restart", "ignore"]


def test_retract_drops_only_a_queued_report(kernel, rig):
    rig.fail("a")
    rig.injector.inject_simple("b")
    rig.engine.report_failure("b")
    rig.engine.retract_report("b")
    rig.engine.retract_report("c")  # never queued: nothing to retract
    rig.engine.retract_report("a")  # in flight: past retracting
    assert [r.data["component"] for r in rig.kinds("report_retracted")] == ["b"]
    kernel.run(until=kernel.now + 10.0)
    assert rig.cells() == ["R_a"]  # the retracted report was never served


# ----------------------------------------------------------------------
# oracle persist / rebuild
# ----------------------------------------------------------------------


def _learning_rig(kernel, manager, store):
    oracle = LearningOracle(min_samples=1, confidence=0.5)
    rig = Rig(kernel, manager, oracle=oracle, session_store=store)
    oracle.notify_outcome(rig.policy.tree, "b", "R_bc", cured=True)
    return rig, oracle


def test_oracle_checkpointed_on_decision_and_rebuilt_from_store(kernel, manager):
    store = SessionStore()
    rig, oracle = _learning_rig(kernel, manager, store)
    assert store.load_snapshot("oracle") is None
    rig.fail("a")  # every decision checkpoints the estimates
    assert store.load_snapshot("oracle") is not None
    kernel.run(until=kernel.now + 5.0)
    trained = oracle.export_state()
    rig.engine.stop()
    rig.engine.new_incarnation()
    rebuilt = rig.kinds("oracle_rebuilt")
    assert len(rebuilt) == 1 and rebuilt[0].data["origin"] == "store"
    assert rebuilt[0].data["entries"] >= 1
    assert oracle.export_state() == trained  # survived via the store
    assert oracle.recommend(rig.policy.tree, "b") == "R_bc"


def test_oracle_rebuilt_naive_when_store_is_down(kernel, manager):
    store = SessionStore()
    rig, oracle = _learning_rig(kernel, manager, store)
    store.save_snapshot("oracle", kernel.now, oracle.export_state())
    faults = StoreFaultModel(kernel)
    store.attach_faults(faults)
    faults.crash(30.0)  # the snapshot exists but cannot be read — or written
    rig.fail("a")  # persisting into the outage must not raise
    rig.engine.stop()
    rig.engine.new_incarnation()
    assert rig.kinds("oracle_rebuilt")[0].data == {"origin": "naive", "entries": 0}
    assert oracle.recommend(rig.policy.tree, "b") == "R_b"  # amnesiac


def test_oracle_rebuilt_naive_without_a_store(kernel, manager):
    rig, oracle = _learning_rig(kernel, manager, None)
    rig.fail("a")
    rig.engine.stop()
    rig.engine.new_incarnation()
    assert rig.kinds("oracle_rebuilt")[0].data == {"origin": "naive", "entries": 0}
    assert oracle.recommend(rig.policy.tree, "b") == "R_b"


def test_non_learning_oracle_is_neither_persisted_nor_rebuilt(kernel, manager):
    store = SessionStore()
    rig = Rig(kernel, manager, session_store=store)
    rig.fail("a")
    rig.engine.stop()
    rig.engine.new_incarnation()
    assert store.load_snapshot("oracle") is None
    assert not rig.kinds("oracle_rebuilt")
