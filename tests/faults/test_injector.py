"""Tests for the fault injector: cure semantics and re-manifestation."""

import pytest

from repro.faults.distributions import Deterministic, Exponential
from repro.faults.injector import FaultInjector, SteadyStateInjector
from repro.types import ProcessState

from tests.conftest import spawn_simple


@pytest.fixture
def booted(kernel, manager):
    for name in ("a", "b"):
        spawn_simple(manager, name, work=1.0)
    manager.start_all()
    kernel.run()
    return FaultInjector(kernel, manager, remanifest_delay=0.05)


def test_inject_fails_the_process(kernel, manager, booted):
    failure = booted.inject_simple("a")
    assert manager.get("a").state is ProcessState.FAILED
    assert booted.is_active(failure.failure_id)
    assert booted.history == [failure]


def test_covering_restart_cures(kernel, manager, booted):
    failure = booted.inject_simple("a")
    manager.restart(["a"])
    kernel.run()
    assert not booted.is_active(failure.failure_id)
    assert manager.get("a").is_running


def test_cure_emits_trace_and_listener(kernel, manager, booted):
    cures = []
    booted.on_cure(lambda d, t: cures.append((d.failure_id, t)))
    failure = booted.inject_simple("a")
    manager.restart(["a"])
    kernel.run()
    assert cures == [(failure.failure_id, kernel.now)]
    assert kernel.trace.first("failure_cured", failure_id=failure.failure_id)


def test_insufficient_restart_remanifests(kernel, manager, booted):
    failure = booted.inject_joint("a", ["a", "b"])
    manager.restart(["a"])  # does not cover b
    kernel.run()
    assert booted.is_active(failure.failure_id)
    assert manager.get("a").state is ProcessState.FAILED  # re-manifested
    assert kernel.trace.first("failure_remanifested", failure_id=failure.failure_id)


def test_joint_restart_cures_joint_failure(kernel, manager, booted):
    failure = booted.inject_joint("a", ["a", "b"])
    manager.restart(["a", "b"])
    kernel.run()
    assert not booted.is_active(failure.failure_id)
    assert manager.all_running()


def test_escalation_after_remanifest_cures(kernel, manager, booted):
    failure = booted.inject_joint("a", ["a", "b"])
    manager.restart(["a"])
    kernel.run()  # re-manifests
    manager.restart(["a", "b"])
    kernel.run()
    assert not booted.is_active(failure.failure_id)


def test_multiple_active_failures_same_component(kernel, manager, booted):
    joint = booted.inject_joint("a", ["a", "b"])
    manager.restart(["a"])
    kernel.run(until=kernel.now + 1.01)  # ready; remanifest pending
    # A second, self-curable failure arrives conceptually (e.g. aging).
    simple = booted.inject_simple("a", kind="aging")
    manager.restart(["a"])
    kernel.run()
    assert not booted.is_active(simple.failure_id)  # covered
    assert booted.is_active(joint.failure_id)  # still needs b


def test_active_failures_listing(kernel, manager, booted):
    f1 = booted.inject_simple("a")
    f2 = booted.inject_simple("b")
    assert {d.failure_id for d in booted.active_failures} == {f1.failure_id, f2.failure_id}


def test_steady_state_injects_at_configured_rate(kernel, manager):
    process = spawn_simple(manager, "s", work=0.5)
    manager.start_all()
    kernel.run()
    injector = FaultInjector(kernel, manager)
    SteadyStateInjector(injector, {"s": Deterministic(10.0)})
    # Repair loop: restart whenever it fails.
    manager.subscribe(
        lambda p, e: kernel.schedule_after(0.0, manager.restart, ["s"]) if e == "down:SIGKILL" else None
    )
    kernel.run(until=kernel.now + 100.0)
    # ~10s up + ~0.5s restart per cycle over 100s -> ~9 failures.
    assert 7 <= len(injector.history) <= 10


def test_steady_state_stop_disarms(kernel, manager):
    spawn_simple(manager, "s", work=0.5)
    manager.start_all()
    kernel.run()
    injector = FaultInjector(kernel, manager)
    steady = SteadyStateInjector(injector, {"s": Deterministic(5.0)})
    steady.stop()
    kernel.run(until=kernel.now + 50.0)
    assert injector.history == []


def test_steady_state_timer_invalidated_by_manual_kill(kernel, manager):
    """A manual kill+restart must not leave a stale lifetime timer firing."""
    spawn_simple(manager, "s", work=0.5)
    manager.start_all()
    kernel.run()
    injector = FaultInjector(kernel, manager)
    SteadyStateInjector(injector, {"s": Deterministic(10.0)})
    kernel.run(until=kernel.now + 5.0)
    manager.restart(["s"])  # timer re-arms from the new ready instant
    kernel.run(until=kernel.now + 6.0)  # old timer (t+10) would fire now
    assert injector.history == []  # new timer fires at ready+10 instead
    kernel.run(until=kernel.now + 5.0)
    assert len(injector.history) == 1


def test_exponential_steady_mttf_converges(kernel, manager):
    spawn_simple(manager, "s", work=0.2)
    manager.start_all()
    kernel.run()
    injector = FaultInjector(kernel, manager)
    SteadyStateInjector(injector, {"s": Exponential(50.0)})
    manager.subscribe(
        lambda p, e: kernel.schedule_after(0.0, manager.restart, ["s"]) if e == "down:SIGKILL" else None
    )
    kernel.run(until=kernel.now + 20000.0)
    count = len(injector.history)
    observed_mttf = 20000.0 / count - 0.2
    assert observed_mttf == pytest.approx(50.0, rel=0.15)


def test_arrivals_count_only_fires_that_inject(kernel, manager):
    """A stale-epoch fire and a fire on a component that is not running
    are not arrivals; a fire that injects is."""
    spawn_simple(manager, "s", work=0.5)
    manager.start_all()
    kernel.run()
    injector = FaultInjector(kernel, manager)
    steady = SteadyStateInjector(injector, {"s": Deterministic(10.0)})
    kernel.run(until=kernel.now + 5.0)
    manager.restart(["s"])  # the armed timer goes stale
    kernel.run(until=kernel.now + 6.0)  # ...and fires, dead, here
    assert steady.arrivals == {"s": 0}
    manager.kill("s")
    steady._fire("s", steady._epoch["s"])  # current epoch, component down
    assert steady.arrivals == {"s": 0} and injector.history == []
    manager.restart(["s"])
    kernel.run(until=kernel.now + 11.0)
    assert steady.arrivals == {"s": 1} and len(injector.history) == 1
