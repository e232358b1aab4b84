"""Crash-only lifecycle tests for the AbstractSupervisor tier.

The supervisor itself is a restartable node: :meth:`AbstractSupervisor.restart`
brings a crashed/hung supervisor back, the fresh incarnation reconciles
half-done episodes against observable process state, rescans for deaths
it never observed — and the generation guard fences any pre-crash
recovery plan callback so a stale plan can never execute after its author
restarted.  The tests restart the supervisor ``GRACE`` seconds after it
went down, as a heartbeat tier above it would, except the fencing test,
which needs it back within the instant.  What the engine does on its own (oracle persist and
rebuild, store-outage fallback, guard order) is pinned without a front end
in ``tests/core/test_recovery_engine.py``.
"""

from repro.core.oracle import PerfectOracle
from repro.core.policy import RestartPolicy
from repro.core.tree import RestartTree, cell
from repro.detection.abstract import AbstractSupervisor
from repro.faults.injector import FaultInjector

from tests.conftest import spawn_simple


def _tree():
    return RestartTree(
        cell("root", children=[
            cell("R_a", ["a"]),
            cell("R_bc", children=[cell("R_b", ["b"]), cell("R_c", ["c"])]),
        ]),
        name="rig",
    )


def _rig(kernel, manager, **kwargs):
    for name in ("a", "b", "c"):
        spawn_simple(manager, name, work=1.0)
    manager.start_all()
    kernel.run()
    injector = FaultInjector(kernel, manager)
    policy = RestartPolicy(_tree(), PerfectOracle(manager))
    supervisor = AbstractSupervisor(
        kernel, manager, policy, monitored=["a", "b", "c"],
        observation_window=2.0, **kwargs,
    )
    return injector, supervisor, policy


#: Seconds from a supervisor going down to its restart.
GRACE = 2.0


def _kinds(kernel, kind):
    return kernel.trace.filter(kind=kind)


def _down(kernel, supervisor, how):
    """Take the supervisor down with ``how`` and restart it after GRACE."""
    how()
    kernel.schedule_after(GRACE, supervisor.restart)


def test_restart_revives_crashed_supervisor(kernel, manager):
    _, supervisor, _ = _rig(kernel, manager)
    kernel.run(until=3.0)
    crashed_at = kernel.now
    _down(kernel, supervisor, supervisor.crash)
    assert not supervisor.responsive
    kernel.run(until=10.0)
    assert supervisor.responsive
    assert supervisor.restart_count == 1
    records = _kinds(kernel, "supervisor_restarted")
    assert len(records) == 1
    assert records[0].data["generation"] == 2
    assert records[0].time == crashed_at + GRACE


def test_hung_supervisor_misses_death_until_rescan(kernel, manager):
    injector, supervisor, _ = _rig(kernel, manager)
    kernel.run(until=2.0)
    _down(kernel, supervisor, supervisor.hang)
    failure = injector.inject_simple("a")
    kernel.run(until=3.5)
    # Dead to the system: the death went undeclared.
    assert not _kinds(kernel, "detection")
    kernel.run(until=30.0)
    assert supervisor.responsive
    restarted_at = _kinds(kernel, "supervisor_restarted")[0].time
    detections = _kinds(kernel, "detection")
    # The death was only declared by the post-restart rescan.
    assert detections and detections[0].time > restarted_at
    assert not injector.is_active(failure.failure_id)
    assert manager.all_running()


def test_stale_plan_fenced_after_supervisor_restart(kernel, manager):
    """The ISSUE-pinned regression: a recovery-plan callback authored
    before the supervisor's crash must fence, not execute."""
    injector, supervisor, _ = _rig(kernel, manager)
    injector.inject_simple("a")
    while not _kinds(kernel, "restart_ordered"):
        assert kernel.step(), "no restart ever ordered"
    kernel.run(until=kernel.now + 0.5)
    manager.kill("a")  # killed while starting: a re-kick is queued
    killed_at = kernel.now
    # Down and back within the instant, before the re-kick runs.
    supervisor.crash()
    supervisor.restart()
    kernel.run(until=killed_at + 20.0)
    assert supervisor.restart_count == 1
    fenced = _kinds(kernel, "plan_fenced")
    assert fenced, "the stale re-kick was never fenced"
    assert fenced[0].time == killed_at
    assert fenced[0].data["stale_generation"] == 1
    assert fenced[0].data["generation"] == 2
    # The stale callback fenced instead of re-kicking; the fresh
    # incarnation's rescan re-declared the dead member and ordered anew.
    assert not _kinds(kernel, "restart_rekick")
    assert len(_kinds(kernel, "restart_ordered")) == 2
    assert manager.all_running()


def test_restart_reconciles_open_episode_to_observing(kernel, manager):
    injector, supervisor, policy = _rig(kernel, manager)
    failure = injector.inject_simple("a")
    while not _kinds(kernel, "restart_ordered"):
        assert kernel.step()
    _down(kernel, supervisor, supervisor.crash)
    kernel.run(until=kernel.now + 30.0)
    record = _kinds(kernel, "supervisor_restarted")[0]
    # "a" had already restarted at the manager level when the fresh
    # incarnation came up, so its wedged episode reconciled to observing.
    assert record.data["reconciled"] == 1
    assert record.data["dropped"] == 0
    assert not injector.is_active(failure.failure_id)
    assert not policy.open_episodes()
    assert manager.all_running()


def test_dead_supervisor_refuses_proactive_restart(kernel, manager):
    """Drift regression: an idle supervisor that crashed used to accept a
    rejuvenation round, kill the cell, and then ignore every ``ready``."""
    _, supervisor, _ = _rig(kernel, manager)
    for down in (supervisor.crash, supervisor.hang):
        down()
        assert supervisor.request_restart("R_a", "rejuvenation") is False
    kernel.run(until=5.0)
    assert not _kinds(kernel, "restart_ordered")
    assert manager.get("a").start_count == 1
    supervisor.restart()
    assert supervisor.request_restart("R_a", "rejuvenation") is True
