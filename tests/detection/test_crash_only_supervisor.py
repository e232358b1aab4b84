"""Crash-only lifecycle of the recovery engine behind a supervisor.

A supervisor is a restartable node: its front end stops the engine when it
dies and calls :meth:`RecoveryEngine.new_incarnation` when it comes back.
The fresh incarnation reconciles half-done episodes against observable
process state, and the generation guard fences any callback the dead
incarnation scheduled, so a stale plan never executes after its author
restarted.  Only REC's front end takes its engine down in the product; the
abstract supervisor runs one incarnation per cell.  So these tests drive
the bare-engine ``Rig`` of ``tests/core/test_recovery_engine.py``, which
forwards lifecycle events only while the engine is alive, as REC's
listener does.  They bring the engine back ``GRACE`` seconds after it went
down, as a heartbeat tier above it would, except the fencing test, which
needs it back within the instant.
"""

from repro.types import ProcessState

from tests.core.test_recovery_engine import Rig

#: Seconds from a supervisor going down to its restart.
GRACE = 2.0


def _down(kernel, rig):
    """Stop the engine now and start a new incarnation after GRACE."""
    rig.engine.stop()
    kernel.schedule_after(GRACE, rig.engine.new_incarnation)


def test_restart_revives_crashed_supervisor(kernel, manager):
    rig = Rig(kernel, manager)
    kernel.run(until=3.0)
    crashed_at = kernel.now
    _down(kernel, rig)
    assert not rig.engine.alive
    kernel.run(until=10.0)
    assert rig.engine.alive
    records = rig.kinds("supervisor_restarted")
    assert len(records) == 1
    assert records[0].data["generation"] == 2
    assert records[0].time == crashed_at + GRACE
    # Idle at death: nothing to reconcile and nothing to drop.
    assert (records[0].data["reconciled"], records[0].data["dropped"]) == (0, 0)


def test_stale_plan_fenced_after_supervisor_restart(kernel, manager):
    """A recovery-plan callback authored before the supervisor's crash
    must fence, not execute; the detector's re-report then recovers."""
    rig = Rig(kernel, manager)
    rig.fail("a")
    kernel.run(until=kernel.now + 0.5)
    assert manager.get("a").state is ProcessState.STARTING
    manager.kill("a")  # killed while starting: a re-kick is queued
    killed_at = kernel.now
    # Down and back within the instant, before the re-kick runs.
    rig.engine.stop()
    rig.engine.new_incarnation()
    kernel.run(until=killed_at + 1.0)
    fenced = rig.kinds("plan_fenced")
    assert fenced, "the stale re-kick was never fenced"
    assert fenced[0].time == killed_at
    assert fenced[0].data["stale_generation"] == 1
    assert fenced[0].data["generation"] == 2
    assert not rig.kinds("restart_rekick")
    assert not manager.get("a").is_running
    # The fresh incarnation dropped the dead member's episode; the
    # detector re-declares it and the new incarnation orders anew.
    rig.engine.report_failure("a")
    kernel.run(until=killed_at + 20.0)
    assert rig.cells() == ["R_a", "R_a"]
    assert manager.all_running()


def test_restart_reconciles_open_episode_to_observing(kernel, manager):
    """The engine dies mid-restart and comes back GRACE seconds later; the
    member restarted meanwhile, so its wedged episode observes and closes."""
    rig = Rig(kernel, manager)
    failure = rig.fail("a")
    assert rig.engine.busy
    stopped_at = kernel.now
    _down(kernel, rig)
    kernel.run(until=stopped_at + 30.0)
    restarted = rig.kinds("supervisor_restarted")
    assert len(restarted) == 1 and restarted[0].time == stopped_at + GRACE
    assert restarted[0].data["generation"] == 2
    # "a" had already restarted at the manager level when the fresh
    # incarnation came up, so its wedged episode reconciled to observing.
    assert restarted[0].data["reconciled"] == 1
    assert restarted[0].data["dropped"] == 0
    assert not rig.injector.is_active(failure.failure_id)
    assert not rig.policy.open_episodes() and not rig.engine.busy
    assert rig.cells() == ["R_a"] and manager.all_running()


def test_dead_supervisor_refuses_proactive_restart(kernel, manager):
    """Drift regression: an idle supervisor that died used to accept a
    rejuvenation round, kill the cell, and then ignore every ``ready``."""
    rig = Rig(kernel, manager)
    rig.engine.stop()
    assert rig.engine.request_restart("R_a", "rejuvenation") is False
    kernel.run(until=5.0)
    assert not rig.kinds("restart_ordered")
    assert manager.get("a").start_count == 1
    rig.engine.new_incarnation()
    assert rig.engine.request_restart("R_a", "rejuvenation") is True
