"""Tests for the discrete-event kernel: ordering, run control, and the one
scheduling primitive."""

import ast
import pathlib

import pytest

from repro.errors import KernelStoppedError, SimulationError
from repro.sim.kernel import Kernel


def test_events_fire_in_time_order(kernel):
    fired = []
    kernel.schedule_after(2.0, fired.append, "b")
    kernel.schedule_after(1.0, fired.append, "a")
    kernel.schedule_after(3.0, fired.append, "c")
    kernel.run()
    assert fired == ["a", "b", "c"]


def test_same_instant_events_fire_fifo(kernel):
    fired = []
    for tag in range(10):
        kernel.schedule_after(1.0, fired.append, tag)
    kernel.run()
    assert fired == list(range(10))


def test_zero_delay_runs_at_current_time(kernel):
    times = []
    kernel.schedule_after(5.0, lambda: kernel.schedule_after(0.0, lambda: times.append(kernel.now)))
    kernel.run()
    assert times == [5.0]


def test_clock_advances_to_event_time(kernel):
    seen = []
    kernel.schedule_after(4.25, lambda: seen.append(kernel.now))
    kernel.run()
    assert seen == [4.25]
    assert kernel.now == 4.25


def test_negative_delay_rejected(kernel):
    with pytest.raises(SimulationError):
        kernel.schedule_after(-1.0, lambda: None)


def test_scheduling_in_past_rejected(kernel):
    kernel.schedule_after(5.0, lambda: None)
    kernel.run()
    with pytest.raises(SimulationError):
        kernel.schedule_at(4.0, lambda: None)


def test_run_until_stops_before_later_events(kernel):
    fired = []
    kernel.schedule_after(1.0, fired.append, "early")
    kernel.schedule_after(10.0, fired.append, "late")
    kernel.run(until=5.0)
    assert fired == ["early"]
    assert kernel.now == 5.0  # clock advanced exactly to the bound


def test_run_until_then_resume(kernel):
    fired = []
    kernel.schedule_after(10.0, fired.append, "late")
    kernel.run(until=5.0)
    kernel.run()
    assert fired == ["late"]


def test_event_scheduled_during_run_executes(kernel):
    fired = []
    kernel.schedule_after(1.0, lambda: kernel.schedule_after(1.0, fired.append, "nested"))
    kernel.run()
    assert fired == ["nested"]
    assert kernel.now == 2.0


def test_stop_halts_execution(kernel):
    fired = []
    kernel.schedule_after(1.0, kernel.stop)
    kernel.schedule_after(2.0, fired.append, "never")
    kernel.run()
    assert fired == []
    assert kernel.stopped


def test_schedule_after_stop_rejected(kernel):
    kernel.stop()
    with pytest.raises(KernelStoppedError):
        kernel.schedule_after(1.0, lambda: None)


def test_step_returns_false_when_empty(kernel):
    assert kernel.step() is False


def test_step_executes_one_event(kernel):
    fired = []
    kernel.schedule_after(1.0, fired.append, "a")
    kernel.schedule_after(2.0, fired.append, "b")
    assert kernel.step() is True
    assert fired == ["a"]


def test_events_executed_counter(kernel):
    for index in range(5):
        kernel.schedule_after(float(index), lambda: None)
    kernel.run()
    assert kernel.events_executed == 5


def test_run_is_not_reentrant(kernel):
    def nested():
        with pytest.raises(SimulationError):
            kernel.run()

    kernel.schedule_after(1.0, nested)
    kernel.run()


def test_pending_events_is_live_across_fire(kernel):
    for i in range(4):
        kernel.schedule_after(float(i + 1), lambda: None)
    kernel.schedule_after(4.0, lambda: None)  # joins the t=4 entry's bucket
    assert kernel.pending_events == 5
    assert kernel.step()
    assert kernel.pending_events == 4
    kernel.run(until=3.5)
    assert kernel.pending_events == 2
    kernel.step()  # one item of the bucket; the other goes back
    assert kernel.pending_events == 1
    kernel.run()
    assert kernel.pending_events == 0


def test_determinism_same_seed():
    def run_once(seed):
        k = Kernel(seed=seed)
        out = []
        rng = k.rngs.stream("test")

        def tick(i):
            out.append((round(k.now, 9), i, rng.random()))
            if i < 20:
                k.schedule_after(rng.uniform(0.1, 1.0), tick, i + 1)

        k.schedule_after(0.5, tick, 0)
        k.run()
        return out

    assert run_once(99) == run_once(99)
    assert run_once(99) != run_once(100)


def test_peek_next_time_is_the_earliest_event(kernel):
    assert kernel.peek_next_time() is None
    kernel.schedule_after(2.0, lambda: None)
    kernel.schedule_after(1.0, lambda: None)
    assert kernel.peek_next_time() == pytest.approx(1.0)


def test_step_drains_a_same_instant_bucket_in_fifo_order(kernel):
    fired = []
    for tag in "abc":
        kernel.schedule_at(1.0, fired.append, tag)
    kernel.schedule_at(2.0, fired.append, "late")
    while kernel.step():
        fired.append(kernel.now)
    assert fired == ["a", 1.0, "b", 1.0, "c", 1.0, "late", 2.0]


ROOT = pathlib.Path(__file__).resolve().parents[2]
#: The removed cancellable and repeating schedulers, and their handles.
_GONE_CALLS = {"call_at", "call_after", "call_soon"}
_GONE_NAMES = {"EventHandle", "RepeatHandle"}
#: ``Kernel.schedule_interval`` is a shim for the kernel dispatch driver in
#: ``bench/drivers.py`` (outside the scan) and is covered by one test;
#: ROADMAP item 1(c) deletes it together with that file's use.
_SHIM_TESTS = {"tests/sim/test_burst_differential.py"}


def _regrowth(path, rel):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _GONE_CALLS or (name == "schedule_interval" and rel not in _SHIM_TESTS):
                yield f"{rel}:{node.lineno} calls {name}"
        elif isinstance(node, ast.Name) and node.id in _GONE_NAMES:
            yield f"{rel}:{node.lineno} names {node.id}"
        elif isinstance(node, ast.Attribute) and node.attr in _GONE_NAMES:
            yield f"{rel}:{node.lineno} names {node.attr}"
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] in _GONE_NAMES:
            yield f"{rel}:{node.lineno} imports {node.name}"


def test_one_scheduling_primitive():
    """``schedule_at`` / ``schedule_after`` are the kernel's only way to
    queue an event: no cancellable ``call_*`` call, no ``EventHandle`` or
    ``RepeatHandle`` name and no ``schedule_interval`` call grows back in
    the product, its tests, tools, examples or paper suite."""
    found = [
        hit
        for top in ("src", "tests", "tools", "examples", "benchmarks")
        for path in sorted((ROOT / top).rglob("*.py"))
        for hit in _regrowth(path, path.relative_to(ROOT).as_posix())
    ]
    assert found == []
    assert not (ROOT / "src" / "repro" / "sim" / "event.py").exists()


def test_the_regrowth_scan_sees_each_removed_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from repro.sim.event import EventHandle\n"
        "kernel.call_after(1.0, f)\n"
        "call_soon(f)\n"
        "kernel.schedule_interval(0.5, f)\n"
        "x: RepeatHandle = None\n"
        "kernel.schedule_after(1.0, f)\n",
        encoding="utf-8",
    )
    assert sorted(_regrowth(sample, "sample.py")) == [
        "sample.py:1 imports EventHandle",
        "sample.py:2 calls call_after",
        "sample.py:3 calls call_soon",
        "sample.py:4 calls schedule_interval",
        "sample.py:5 names RepeatHandle",
    ]
    assert list(_regrowth(sample, "tests/sim/test_burst_differential.py")) != []
