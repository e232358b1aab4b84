"""Tests for the collapsed AbstractSupervisor."""

import pytest

from repro.core.oracle import NaiveOracle, PerfectOracle
from repro.core.policy import RestartPolicy
from repro.core.tree import RestartTree, cell
from repro.detection.abstract import AbstractSupervisor
from repro.faults.injector import FaultInjector

from tests.conftest import spawn_simple


@pytest.fixture
def rig(kernel, manager):
    """Three supervised components under a two-level tree."""
    tree = RestartTree(
        cell("root", children=[
            cell("R_a", ["a"]),
            cell("R_bc", children=[cell("R_b", ["b"]), cell("R_c", ["c"])]),
        ]),
        name="rig",
    )
    for name in ("a", "b", "c"):
        spawn_simple(manager, name, work=1.0)
    manager.start_all()
    kernel.run()
    injector = FaultInjector(kernel, manager)
    policy = RestartPolicy(tree, PerfectOracle(manager))
    supervisor = AbstractSupervisor(
        kernel, manager, policy, monitored=["a", "b", "c"], observation_window=2.0
    )
    return injector, supervisor, policy


def recover(kernel, manager, injector, failure, timeout=120.0):
    deadline = kernel.now + timeout
    while kernel.now < deadline:
        if not injector.is_active(failure.failure_id) and manager.all_running():
            return kernel.now - failure.injected_at
        if not kernel.step():
            break
    raise AssertionError("failure not recovered")


def test_detects_and_restarts(kernel, manager, rig):
    injector, supervisor, _ = rig
    failure = injector.inject_simple("a")
    recovery = recover(kernel, manager, injector, failure)
    assert supervisor.detections == 1
    # detection (<=1.2) + restart (1.0)
    assert 1.0 < recovery < 2.5


def test_detection_latency_distribution(kernel, manager, rig):
    injector, supervisor, _ = rig
    delays = []
    for index in range(60):
        kernel.run(until=kernel.now + 5.0)
        failure = injector.inject_simple("a")
        injected = kernel.now
        recover(kernel, manager, injector, failure)
        record = kernel.trace.filter(kind="detection", component="a")[-1]
        delays.append(record.time - injected)
    mean = sum(delays) / len(delays)
    assert mean == pytest.approx(0.5 + 0.2, abs=0.1)  # U(0,1)/2 + timeout
    assert all(0.2 <= d <= 1.25 for d in delays)


def test_joint_failure_escalates(kernel, manager, rig):
    injector, supervisor, policy = rig
    failure = injector.inject_joint("b", ["b", "c"])
    recover(kernel, manager, injector, failure)
    ordered = [r.data["cell"] for r in kernel.trace.filter(kind="restart_ordered")]
    assert ordered == ["R_bc"]  # perfect oracle goes straight to the pair


def test_naive_oracle_escalates_step_by_step(kernel, manager):
    tree = RestartTree(
        cell("root", children=[
            cell("R_bc", children=[cell("R_b", ["b"]), cell("R_c", ["c"])]),
        ]),
    )
    for name in ("b", "c"):
        spawn_simple(manager, name, work=1.0)
    manager.start_all()
    kernel.run()
    injector = FaultInjector(kernel, manager)
    policy = RestartPolicy(tree, NaiveOracle())
    AbstractSupervisor(kernel, manager, policy, monitored=["b", "c"])
    failure = injector.inject_joint("b", ["b", "c"])
    recover(kernel, manager, injector, failure)
    ordered = [r.data["cell"] for r in kernel.trace.filter(kind="restart_ordered")]
    assert ordered == ["R_b", "R_bc"]
    assert policy.escalations == 1


def test_concurrent_failures_serialized(kernel, manager, rig):
    injector, supervisor, _ = rig
    fa = injector.inject_simple("a")
    fb = injector.inject_simple("b")
    deadline = kernel.now + 60.0
    while kernel.now < deadline and (
        injector.active_failures or not manager.all_running()
    ):
        assert kernel.step()
    assert not injector.active_failures
    assert manager.all_running()
    ordered = [r.data["cell"] for r in kernel.trace.filter(kind="restart_ordered")]
    assert sorted(ordered) == ["R_a", "R_b"]


def test_member_refailing_during_batch_does_not_wedge(kernel, manager):
    """The regression behind the availability deadlock: a batch member that
    completes its restart and immediately dies again (while a slower member
    is still starting) must be re-detected, not swallowed."""
    tree = RestartTree(
        cell("root", children=[cell("R_fast", ["fast"]), cell("R_pair", ["slow", "fast2"])]),
    )
    spawn_simple(manager, "fast", work=0.5)
    spawn_simple(manager, "slow", work=10.0)
    spawn_simple(manager, "fast2", work=0.5)
    manager.start_all()
    kernel.run()
    injector = FaultInjector(kernel, manager)
    policy = RestartPolicy(tree, PerfectOracle(manager))
    AbstractSupervisor(kernel, manager, policy, monitored=["fast", "slow", "fast2"])
    failure = injector.inject_simple("fast2")  # restarts the R_pair cell
    # While 'slow' grinds through its 10s startup, kill fast2 again.
    kernel.run(until=kernel.now + 3.0)
    assert manager.get("fast2").is_running
    second = injector.inject_simple("fast2")
    deadline = kernel.now + 120.0
    while kernel.now < deadline and (
        injector.active_failures or not manager.all_running()
    ):
        assert kernel.step()
    assert not injector.active_failures
    assert manager.all_running()


def test_member_killed_mid_start_is_rekicked_at_once(kernel, manager):
    tree = RestartTree(
        cell("root", children=[cell("R_pair", ["x", "slow"])]),
    )
    spawn_simple(manager, "x", work=5.0)
    spawn_simple(manager, "slow", work=20.0)
    manager.start_all()
    kernel.run()
    injector = FaultInjector(kernel, manager)
    policy = RestartPolicy(tree, PerfectOracle(manager))
    AbstractSupervisor(kernel, manager, policy, monitored=["x", "slow"])
    injector.inject_simple("x")  # restarts both; slow takes 20s
    kernel.run(until=kernel.now + 3.0)
    # Kill x *while it is starting* inside the in-flight batch (only an
    # external actor can do this; failures only hit running processes).
    from repro.types import ProcessState

    assert manager.get("x").state is ProcessState.STARTING
    manager.kill("x")
    killed_at = kernel.now
    deadline = kernel.now + 120.0
    while kernel.now < deadline and not manager.all_running():
        assert kernel.step()
    assert manager.all_running()
    rekick = kernel.trace.first("restart_rekick")
    assert rekick.time == killed_at and rekick.data["components"] == ("x",)
    # Done when slow is: no timeout waited out on top of its startup.
    assert kernel.now < killed_at + 20.0


def test_member_that_dies_on_every_start_does_not_spin(kernel, manager):
    """One re-kick per step, counted against the budget; the second death
    is left to the detector, whose reports climb the tree to a give-up."""
    from repro.types import ProcessState

    tree = RestartTree(cell("root", children=[cell("R_pair", ["x", "slow"])]))
    spawn_simple(manager, "x", work=2.0)
    spawn_simple(manager, "slow", work=10.0)
    manager.start_all()
    kernel.run()
    injector = FaultInjector(kernel, manager)
    policy = RestartPolicy(tree, PerfectOracle(manager))
    supervisor = AbstractSupervisor(kernel, manager, policy, monitored=["x", "slow"])

    def kill_x_while_starting():
        if manager.get("x").state is ProcessState.STARTING:
            manager.kill("x")
        kernel.schedule_after(0.5, kill_x_while_starting)

    kill_x_while_starting()
    injector.inject_simple("x")
    kernel.run(until=kernel.now + 150.0)  # inside the 300 s budget window
    cells = [r.data["cell"] for r in kernel.trace.filter(kind="restart_ordered")]
    assert cells == ["R_pair", "root"]  # escalated once, then gave up
    assert [r.data["components"] for r in kernel.trace.filter(kind="restart_rekick")] == [
        ("x",), ("x",),
    ]
    assert kernel.trace.filter(kind="operator_escalation")
    assert not supervisor.engine.busy
    # Two ordered restarts and two re-kicks of x, all on its budget.
    assert policy.restarts_in_window("x", kernel.now) == 4
