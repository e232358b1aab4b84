"""Tests for the discrete-event kernel: ordering, cancellation, run control."""

import ast
import pathlib

import pytest

from repro.errors import KernelStoppedError, SimulationError
from repro.sim.kernel import Kernel


def test_events_fire_in_time_order(kernel):
    fired = []
    kernel.call_after(2.0, fired.append, "b")
    kernel.call_after(1.0, fired.append, "a")
    kernel.call_after(3.0, fired.append, "c")
    kernel.run()
    assert fired == ["a", "b", "c"]


def test_same_instant_events_fire_fifo(kernel):
    fired = []
    for tag in range(10):
        kernel.call_after(1.0, fired.append, tag)
    kernel.run()
    assert fired == list(range(10))


def test_call_soon_runs_at_current_time(kernel):
    times = []
    kernel.call_after(5.0, lambda: kernel.call_soon(lambda: times.append(kernel.now)))
    kernel.run()
    assert times == [5.0]


def test_clock_advances_to_event_time(kernel):
    seen = []
    kernel.call_after(4.25, lambda: seen.append(kernel.now))
    kernel.run()
    assert seen == [4.25]
    assert kernel.now == 4.25


def test_cancelled_event_does_not_fire(kernel):
    fired = []
    handle = kernel.call_after(1.0, fired.append, "x")
    handle.cancel()
    kernel.run()
    assert fired == []


def test_cancel_is_idempotent(kernel):
    handle = kernel.call_after(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    kernel.run()


def test_negative_delay_rejected(kernel):
    with pytest.raises(SimulationError):
        kernel.call_after(-1.0, lambda: None)


def test_scheduling_in_past_rejected(kernel):
    kernel.call_after(5.0, lambda: None)
    kernel.run()
    with pytest.raises(SimulationError):
        kernel.call_at(4.0, lambda: None)


def test_run_until_stops_before_later_events(kernel):
    fired = []
    kernel.call_after(1.0, fired.append, "early")
    kernel.call_after(10.0, fired.append, "late")
    kernel.run(until=5.0)
    assert fired == ["early"]
    assert kernel.now == 5.0  # clock advanced exactly to the bound


def test_run_until_then_resume(kernel):
    fired = []
    kernel.call_after(10.0, fired.append, "late")
    kernel.run(until=5.0)
    kernel.run()
    assert fired == ["late"]


def test_event_scheduled_during_run_executes(kernel):
    fired = []
    kernel.call_after(1.0, lambda: kernel.call_after(1.0, fired.append, "nested"))
    kernel.run()
    assert fired == ["nested"]
    assert kernel.now == 2.0


def test_stop_halts_execution(kernel):
    fired = []
    kernel.call_after(1.0, kernel.stop)
    kernel.call_after(2.0, fired.append, "never")
    kernel.run()
    assert fired == []
    assert kernel.stopped


def test_schedule_after_stop_rejected(kernel):
    kernel.stop()
    with pytest.raises(KernelStoppedError):
        kernel.call_after(1.0, lambda: None)


def test_max_events_bound(kernel):
    fired = []
    for index in range(10):
        kernel.call_after(float(index + 1), fired.append, index)
    kernel.run(max_events=3)
    assert fired == [0, 1, 2]


def test_step_returns_false_when_empty(kernel):
    assert kernel.step() is False


def test_step_executes_one_event(kernel):
    fired = []
    kernel.call_after(1.0, fired.append, "a")
    kernel.call_after(2.0, fired.append, "b")
    assert kernel.step() is True
    assert fired == ["a"]


def test_pending_events_excludes_cancelled(kernel):
    handle = kernel.call_after(1.0, lambda: None)
    kernel.call_after(2.0, lambda: None)
    handle.cancel()
    assert kernel.pending_events == 1


def test_peek_next_time_skips_cancelled(kernel):
    first = kernel.call_after(1.0, lambda: None)
    kernel.call_after(2.0, lambda: None)
    first.cancel()
    assert kernel.peek_next_time() == pytest.approx(2.0)


def test_events_executed_counter(kernel):
    for index in range(5):
        kernel.call_after(float(index), lambda: None)
    kernel.run()
    assert kernel.events_executed == 5


def test_run_is_not_reentrant(kernel):
    def nested():
        with pytest.raises(SimulationError):
            kernel.run()

    kernel.call_after(1.0, nested)
    kernel.run()


def test_pending_events_is_live_across_fire_and_cancel(kernel):
    handles = [kernel.call_after(float(i + 1), lambda: None) for i in range(6)]
    assert kernel.pending_events == 6
    handles[0].cancel()
    handles[1].cancel()
    assert kernel.pending_events == 4
    kernel.run(max_events=1)  # fires the first live event (t=3.0)
    assert kernel.pending_events == 3
    kernel.run()
    assert kernel.pending_events == 0


def test_cancel_after_fire_does_not_corrupt_count(kernel):
    handle = kernel.call_after(1.0, lambda: None)
    kernel.call_after(2.0, lambda: None)
    kernel.run(max_events=1)
    handle.cancel()  # already fired: must be a no-op for the live count
    handle.cancel()
    assert kernel.pending_events == 1


def test_cancel_from_inside_run_loop(kernel):
    fired = []
    sibling = kernel.call_after(1.0, fired.append, "sibling")
    kernel.call_at(1.0, sibling.cancel)
    # call_at scheduled after call_after, so the canceller has a later seq;
    # same-instant FIFO means the sibling fires first.
    kernel.run()
    assert fired == ["sibling"]

    late = kernel.call_after(1.0, fired.append, "late")
    kernel.call_soon(late.cancel)
    kernel.run()
    assert fired == ["sibling"]


def test_mass_cancellation_compacts_queue(kernel):
    keeper_fired = []
    handles = [kernel.call_after(1.0 + i * 0.001, lambda: None) for i in range(500)]
    keeper = kernel.call_after(2.0, keeper_fired.append, "kept")
    for handle in handles:
        handle.cancel()
    # Compaction is an internal policy; the observable contract is that the
    # live count and execution order survive it.
    assert kernel.pending_events == 1
    assert len(kernel._queue) < 500
    assert kernel.peek_next_time() == pytest.approx(2.0)
    kernel.run()
    assert keeper_fired == ["kept"]
    assert kernel.pending_events == 0


def test_interleaved_cancel_and_schedule_stays_consistent(kernel):
    import random

    rng = random.Random(42)
    live = []
    fired = []
    for i in range(300):
        handle = kernel.call_after(rng.uniform(0.1, 10.0), fired.append, i)
        live.append((i, handle))
        if rng.random() < 0.5 and live:
            victim, victim_handle = live.pop(rng.randrange(len(live)))
            victim_handle.cancel()
    assert kernel.pending_events == len(live)
    kernel.run()
    assert sorted(fired) == sorted(i for i, _ in live)


def test_determinism_same_seed():
    def run_once(seed):
        k = Kernel(seed=seed)
        out = []
        rng = k.rngs.stream("test")

        def tick(i):
            out.append((round(k.now, 9), i, rng.random()))
            if i < 20:
                k.call_after(rng.uniform(0.1, 1.0), tick, i + 1)

        k.call_after(0.5, tick, 0)
        k.run()
        return out

    assert run_once(99) == run_once(99)
    assert run_once(99) != run_once(100)


def test_no_product_caller_drops_an_event_handle():
    """``call_at`` / ``call_after`` / ``call_soon`` build an ``EventHandle``
    for the caller that keeps it; under ``src/repro`` a call whose result
    is thrown away (a bare expression statement) belongs on
    ``schedule_at`` / ``schedule_after`` — same instant, same FIFO rank,
    no handle allocated and none cleared at dispatch."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
    dropped = [
        f"{path.relative_to(src).as_posix()}:{node.lineno}"
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr in ("call_at", "call_after", "call_soon")
    ]
    assert dropped == []
