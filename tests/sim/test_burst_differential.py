"""Differential stress test: batched same-instant dispatch vs. a reference.

The kernel's slab queue batches same-timestamp events into shared bucket
entries and appends to the queue tail without touching the heap.  The
contract those optimizations must preserve is simple: *all events at one
SimTime fire in scheduling (FIFO) order, and events scheduled at the
current instant from inside the burst run after everything already queued
there* — exactly what a naive one-event-per-heap-entry scheduler would do.

These tests build a randomized plan of thousands of same-instant events —
records with arguments, argument-free records (a bare-callable payload),
and spawners that extend the burst while it is draining — and execute it
twice: once on the real kernel, once on an unbatched pure-Python reference
dispatcher.  The observed firing orders must be identical
element-for-element.
"""

import random

from repro.sim.kernel import Kernel

BURST_AT = 1.0


def _make_plan(rng: random.Random, n: int):
    """A reproducible plan, one kind per event: ``plain`` (a ``(callback,
    args)`` payload), ``bare`` (a no-argument callable) or ``spawn``
    (schedules one more same-instant event while the burst is draining)."""
    plan = []
    for _ in range(n):
        r = rng.random()
        plan.append("spawn" if r < 0.14 else "bare" if r < 0.55 else "plain")
    return plan


def _reference_order(plan):
    """Unbatched model: a flat list walked in scheduling order."""
    events = list(enumerate(plan))
    order = []
    next_label = len(plan)
    i = 0
    while i < len(events):
        label, kind = events[i]
        i += 1
        order.append(label)
        if kind == "spawn":
            events.append((next_label, "plain"))
            next_label += 1
    return order


def _kernel_order(plan):
    kernel = Kernel(seed=99)
    order = []
    next_label = [len(plan)]

    def record(label):
        order.append(label)

    def spawn(label):
        order.append(label)
        new_label = next_label[0]
        next_label[0] += 1
        kernel.schedule_at(BURST_AT, record, new_label)

    for i, kind in enumerate(plan):
        if kind == "plain":
            kernel.schedule_at(BURST_AT, record, i)
        elif kind == "bare":
            kernel.schedule_at(BURST_AT, lambda label=i: order.append(label))
        else:
            kernel.schedule_at(BURST_AT, spawn, i)
    kernel.run()
    assert kernel.pending_events == 0
    return order


def test_large_same_instant_burst_matches_unbatched_reference():
    plan = _make_plan(random.Random(2002), 3000)
    assert plan.count("spawn") > 300  # the stress is real: the burst grows
    assert _kernel_order(plan) == _reference_order(plan)


def test_burst_differential_across_seeds():
    for seed in (0, 1, 7, 1234):
        plan = _make_plan(random.Random(seed), 1000)
        assert _kernel_order(plan) == _reference_order(plan), (
            f"divergence for plan seed {seed}"
        )


def test_burst_interleaved_with_timers():
    """Same-instant bursts riding between interval-timer firings keep FIFO.

    The ``schedule_interval`` shim re-arms itself through ``schedule_after``
    while bursts land around it; within any one timestamp the timer firing
    and the burst events must still interleave purely by scheduling order.
    The shim returns no handle, so ``run(until=...)`` bounds it.
    """
    kernel = Kernel(seed=5)
    order = []

    def tick():
        order.append("tick")
        when = kernel.now + 0.0005
        for i in range(25):
            kernel.schedule_at(when, order.append, f"burst-{i}")

    assert kernel.schedule_interval(0.001, tick) is None
    # until sits strictly between the 10th burst (~0.0105) and the 11th
    # tick (0.011), clear of float rounding on either side.
    kernel.run(until=0.0107)
    expected = []
    for _ in range(10):
        expected.append("tick")
        expected.extend(f"burst-{i}" for i in range(25))
    assert order == expected
    assert kernel.pending_events == 1  # the 11th tick, armed
