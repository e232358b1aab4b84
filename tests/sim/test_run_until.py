"""The event-driven wait: ``Kernel.run_until`` / ``Kernel.wake`` contract.

``run_until`` rides the batched run loop and re-reads its predicate only
after an event that called ``wake()``; these tests pin where it returns,
what it leaves in the queue, and that none of it leaks into a plain ``run``.
"""

import pytest

from repro.errors import KernelStoppedError, SimulationError


class Flag:
    """Predicate state whose owner wakes the kernel, like a real wake site."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.up = False
        self.reads = 0

    def raise_(self):
        self.up = True
        self.kernel.wake()

    def read(self):
        self.reads += 1
        return self.up


def test_returns_at_the_waking_event_without_advancing_to_until(kernel):
    flag = Flag(kernel)
    fired = []
    kernel.schedule_at(1.0, fired.append, "before")
    kernel.schedule_at(2.0, flag.raise_)
    kernel.schedule_at(3.0, fired.append, "after")
    assert kernel.run_until(flag.read, until=10.0) is True
    assert kernel.now == 2.0
    assert fired == ["before"]
    assert kernel.pending_events == 1


def test_predicate_is_read_up_front_and_after_wakes_only(kernel):
    flag = Flag(kernel)
    for tick in range(1, 101):
        kernel.schedule_at(float(tick), lambda: None)
    kernel.schedule_at(40.0, kernel.wake)  # a wake that changes nothing
    kernel.schedule_at(70.0, flag.raise_)
    assert kernel.run_until(flag.read, until=200.0) is True
    assert kernel.now == 70.0
    assert flag.reads == 3  # up front, the idle wake, the real one


def test_true_predicate_runs_nothing(kernel):
    fired = []
    kernel.schedule_at(1.0, fired.append, "x")
    assert kernel.run_until(lambda: True, until=5.0) is True
    assert kernel.now == 0.0 and fired == []


def test_wake_mid_bucket_returns_after_the_item_and_keeps_fifo_order(kernel):
    flag = Flag(kernel)
    order = []
    kernel.schedule_at(1.0, order.append, "a")
    kernel.schedule_at(1.0, flag.raise_)
    kernel.schedule_at(1.0, order.append, "c")
    kernel.schedule_at(1.0, order.append, "d")
    # A later entry at the same instant must still run after the bucket's rest.
    kernel.schedule_at(2.0, lambda: None)
    kernel.schedule_at(1.0, order.append, "e")
    assert kernel.run_until(flag.read, until=5.0) is True
    assert order == ["a"]
    assert kernel.now == 1.0
    assert kernel.events_executed == 2
    assert kernel.pending_events == 4
    kernel.run(until=1.0)
    assert order == ["a", "c", "d", "e"]


def test_unarmed_wake_does_not_shorten_run(kernel):
    """Regression: an engine-side wake once cut ``run_until_quiescent``'s
    settle run short; a stray wake must leave run()/run(until=) alone."""
    fired = []
    kernel.schedule_at(1.0, kernel.wake)
    kernel.schedule_at(1.0, fired.append, "same bucket")
    kernel.schedule_at(2.0, fired.append, "later")
    kernel.run(until=5.0)
    assert fired == ["same bucket", "later"]
    assert kernel.now == 5.0
    kernel.wake()
    kernel.schedule_at(6.0, fired.append, "after a wake outside any run")
    kernel.run()
    assert fired[-1] == "after a wake outside any run"


def test_empty_queue_returns_false_without_moving_the_clock(kernel):
    kernel.run(until=4.0)
    assert kernel.run_until(lambda: False, until=9.0) is False
    assert kernel.now == 4.0


def test_drained_queue_leaves_the_clock_at_the_last_event(kernel):
    kernel.schedule_at(2.0, lambda: None)
    assert kernel.run_until(lambda: False, until=9.0) is False
    assert kernel.now == 2.0


def test_timeout_executes_nothing_past_until_and_stops_the_clock_there(kernel):
    fired = []
    kernel.schedule_at(1.0, fired.append, "in")
    kernel.schedule_at(5.0, fired.append, "at")
    kernel.schedule_at(5.5, fired.append, "past")
    assert kernel.run_until(lambda: False, until=5.0) is False
    assert fired == ["in", "at"]
    assert kernel.now == 5.0
    assert kernel.pending_events == 1


def test_wake_with_only_later_events_left_still_rereads(kernel):
    flag = Flag(kernel)
    kernel.schedule_at(1.0, flag.raise_)
    kernel.schedule_at(50.0, lambda: None)
    assert kernel.run_until(flag.read, until=5.0) is True
    assert kernel.now == 1.0


def test_stop_inside_run_until_wins_and_forbids_scheduling(kernel):
    flag = Flag(kernel)
    fired = []

    def stop_and_raise():
        kernel.stop()
        flag.raise_()

    kernel.schedule_at(1.0, stop_and_raise)
    kernel.schedule_at(2.0, fired.append, "never")
    assert kernel.run_until(flag.read, until=5.0) is False
    assert kernel.stopped and kernel.now == 1.0 and fired == []
    with pytest.raises(KernelStoppedError):
        kernel.schedule_at(3.0, lambda: None)
    kernel.run()
    assert fired == []


def test_stopped_kernel_runs_nothing(kernel):
    fired = []
    kernel.schedule_at(1.0, fired.append, "never")
    kernel.stop()
    assert kernel.run_until(lambda: False, until=5.0) is False
    assert fired == [] and kernel.now == 0.0 and kernel.stopped


def test_not_reentrant(kernel):
    errors = []

    def nested():
        try:
            kernel.run_until(lambda: False, until=9.0)
        except SimulationError as exc:
            errors.append(str(exc))

    kernel.schedule_at(1.0, nested)
    kernel.run_until(lambda: False, until=2.0)
    assert errors == ["kernel.run_until() is not reentrant"]
    kernel.schedule_at(3.0, nested)
    kernel.run()
    assert len(errors) == 2


@pytest.mark.parametrize("where", ["predicate", "callback"])
def test_a_raise_disarms(kernel, where):
    def boom():
        raise RuntimeError(where)

    if where == "callback":
        kernel.schedule_at(1.0, boom)
    with pytest.raises(RuntimeError):
        kernel.run_until(boom if where == "predicate" else (lambda: False), until=5.0)
    # Unarmed again: a wake is inert and the next run is a plain one.
    fired = []
    kernel.schedule_at(2.0, kernel.wake)
    kernel.schedule_at(3.0, fired.append, "ran")
    kernel.run(until=4.0)
    assert fired == ["ran"] and kernel.now == 4.0
    assert kernel.run_until(lambda: True) is True
