"""Tests for SimProcess lifecycle and batch semantics."""

import pytest

from repro.errors import InvalidTransitionError
from repro.procmgr.process import ProcessSpec, StartupContext, constant_work, noisy_work
from repro.types import ProcessState, Signal

from tests.conftest import spawn_simple


def test_initial_state_is_new(manager):
    process = spawn_simple(manager, "p")
    assert process.state is ProcessState.NEW
    assert not process.is_running


def test_start_transitions_through_starting_to_running(kernel, manager):
    process = spawn_simple(manager, "p", work=2.0)
    manager.start("p")
    assert process.state is ProcessState.STARTING
    kernel.run()
    assert process.state is ProcessState.RUNNING
    assert process.start_count == 1
    assert process.last_ready_at == pytest.approx(2.0)


def test_kill_running_process(kernel, manager):
    process = spawn_simple(manager, "p")
    manager.start("p")
    kernel.run()
    manager.kill("p")
    assert process.state is ProcessState.FAILED
    assert process.failure_count == 1
    assert process.last_down_at == kernel.now


def test_sigterm_stops_gracefully(kernel, manager):
    process = spawn_simple(manager, "p")
    manager.start("p")
    kernel.run()
    manager.kill("p", Signal.TERM)
    assert process.state is ProcessState.STOPPED
    assert process.failure_count == 0  # graceful stop is not a failure


def test_kill_while_starting_aborts_startup(kernel, manager):
    process = spawn_simple(manager, "p", work=10.0)
    manager.start("p")
    kernel.schedule_after(1.0, manager.kill, "p")
    kernel.run()
    assert process.state is ProcessState.FAILED
    assert process.start_count == 0  # never became ready


def test_restart_after_failure(kernel, manager):
    process = spawn_simple(manager, "p", work=1.0)
    manager.start("p")
    kernel.run()
    manager.kill("p")
    manager.start("p")
    kernel.run()
    assert process.is_running
    assert process.start_count == 2


def test_double_start_rejected(kernel, manager):
    spawn_simple(manager, "p")
    manager.start("p")
    with pytest.raises(InvalidTransitionError):
        manager.start("p")


def test_kill_terminal_process_is_noop(kernel, manager):
    process = spawn_simple(manager, "p")
    manager.start("p")
    kernel.run()
    manager.kill("p")
    manager.kill("p")
    assert process.failure_count == 1


def test_failure_metadata_attached_and_kept(kernel, manager):
    process = spawn_simple(manager, "p")
    manager.start("p")
    kernel.run()
    manager.fail("p", failure={"tag": "f1"})
    assert process.failure == {"tag": "f1"}
    assert process.last_failure == {"tag": "f1"}
    manager.start("p")
    kernel.run()
    assert process.failure is None  # cleared when ready
    assert process.last_failure == {"tag": "f1"}  # kept for attribution


def test_batch_recorded_on_start(kernel, manager):
    process = spawn_simple(manager, "p")
    manager.start("p", batch=frozenset(["p", "q"]))
    assert process.last_batch == frozenset(["p", "q"])


def test_startup_context_carries_batch(kernel, manager):
    seen = {}

    def work(context: StartupContext) -> float:
        seen["batch"] = context.batch
        seen["process"] = context.process.name
        return 1.0

    manager.spawn(ProcessSpec("ctx", work))
    manager.start("ctx", batch=frozenset(["ctx", "other"]))
    kernel.run()
    assert seen["batch"] == frozenset(["ctx", "other"])
    assert seen["process"] == "ctx"


def test_trace_records_lifecycle(kernel, manager):
    spawn_simple(manager, "p")
    manager.start("p")
    kernel.run()
    manager.kill("p")
    kinds = [r.kind for r in kernel.trace.filter(source="proc.p")]
    assert kinds == ["process_start", "process_ready", "process_failed"]


def test_constant_work_helper(kernel, manager):
    spec = ProcessSpec("c", constant_work(3.5))
    process = manager.spawn(spec, start=True)
    kernel.run()
    assert process.last_ready_at == pytest.approx(3.5)


def test_noisy_work_is_near_mean(kernel, manager):
    import random

    work = noisy_work(10.0, relative_sigma=0.02)
    context = StartupContext(
        manager=manager,
        process=spawn_simple(manager, "n"),
        rng=random.Random(5),
        batch=frozenset(["n"]),
    )
    samples = [work(context) for _ in range(200)]
    mean = sum(samples) / len(samples)
    assert mean == pytest.approx(10.0, rel=0.01)
    assert all(8.0 < s < 12.0 for s in samples)
