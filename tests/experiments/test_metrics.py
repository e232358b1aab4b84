"""Tests for experiment metrics: stats and uptime tracking."""

import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExperimentError
from repro.experiments.metrics import RecoveryStats, UptimeTracker

from tests.conftest import spawn_simple


def test_recovery_stats_basics():
    stats = RecoveryStats.from_samples([5.0, 6.0, 7.0])
    assert stats.n == 3
    assert stats.mean == pytest.approx(6.0)
    assert stats.minimum == 5.0
    assert stats.maximum == 7.0
    assert stats.coefficient_of_variation == pytest.approx(stats.std / 6.0)
    assert stats.stderr == pytest.approx(stats.std / 3 ** 0.5)


def test_recovery_stats_single_sample():
    stats = RecoveryStats.from_samples([4.2])
    assert stats.std == 0.0
    assert stats.stderr == 0.0


def test_recovery_stats_empty_rejected():
    with pytest.raises(ExperimentError):
        RecoveryStats.from_samples([])


def test_uptime_tracker_counts_uptime_and_failures(kernel, manager):
    for name in ("a", "b"):
        spawn_simple(manager, name, work=1.0)
    manager.start_all()
    kernel.run()
    tracker = UptimeTracker(manager, ["a", "b"])
    t0 = kernel.now
    kernel.run(until=t0 + 10.0)
    manager.fail("a")
    kernel.call_after(5.0, manager.restart, ["a"])
    kernel.run(until=t0 + 30.0)
    tracker.finalize()
    assert tracker.failures_of("a") == 1
    assert tracker.failures_of("b") == 0
    # a: 10 up, 6 down (5 wait + 1 restart), then up again.
    assert tracker.component_downtime("a") == pytest.approx(6.0, abs=0.1)
    assert tracker.component_uptime("a") == pytest.approx(24.0, abs=0.1)
    assert tracker.component_uptime("b") == pytest.approx(30.0, abs=0.1)


def test_uptime_tracker_system_view(kernel, manager):
    for name in ("a", "b"):
        spawn_simple(manager, name, work=1.0)
    manager.start_all()
    kernel.run()
    tracker = UptimeTracker(manager, ["a", "b"])
    t0 = kernel.now
    manager.fail("a")
    kernel.call_after(2.0, manager.restart, ["a"])
    kernel.run(until=t0 + 10.0)
    manager.fail("b")
    kernel.call_after(1.0, manager.restart, ["b"])
    kernel.run(until=t0 + 20.0)
    tracker.finalize()
    assert tracker.system_outages == 2
    assert tracker.system_downtime == pytest.approx(3.0 + 2.0, abs=0.1)
    assert tracker.system_availability() == pytest.approx(15.0 / 20.0, abs=0.01)


def test_uptime_tracker_overlapping_outages_counted_once(kernel, manager):
    for name in ("a", "b"):
        spawn_simple(manager, name, work=1.0)
    manager.start_all()
    kernel.run()
    tracker = UptimeTracker(manager, ["a", "b"])
    t0 = kernel.now
    manager.fail("a")
    manager.fail("b")  # overlapping with a's outage
    kernel.call_after(3.0, manager.restart, ["a", "b"])
    kernel.run(until=t0 + 10.0)
    tracker.finalize()
    assert tracker.system_outages == 1
    assert tracker.system_downtime == pytest.approx(4.0, abs=0.2)


def test_observed_mttf_mttr(kernel, manager):
    spawn_simple(manager, "a", work=1.0)
    manager.start_all()
    kernel.run()
    tracker = UptimeTracker(manager, ["a"])
    t0 = kernel.now
    for _ in range(3):
        kernel.run(until=kernel.now + 10.0)
        manager.fail("a")
        manager.restart(["a"])
    kernel.run(until=kernel.now + 10.0)
    tracker.finalize()
    # Up intervals: 10s before the first failure, then 9s between each
    # ready and the next failure, plus the final 10s run: (10+9+9+9)/3.
    assert tracker.observed_mttf("a") == pytest.approx(37.0 / 3.0, abs=0.5)
    assert tracker.observed_mttr("a") == pytest.approx(1.0, abs=0.2)


def test_observed_mttf_none_without_failures(kernel, manager):
    spawn_simple(manager, "a", work=1.0)
    manager.start_all()
    kernel.run()
    tracker = UptimeTracker(manager, ["a"])
    tracker.finalize()
    assert tracker.observed_mttf("a") is None
    assert tracker.observed_mttr("a") is None


# ----------------------------------------------------------------------
# the counted down-set against a rescan of every component
# ----------------------------------------------------------------------


class _Process:
    def __init__(self, name, is_running):
        self.name = name
        self.is_running = is_running


class _Manager:
    """Just what ``UptimeTracker`` touches: a clock, lookups, one listener."""

    def __init__(self, running):
        self.kernel = types.SimpleNamespace(now=0.0)
        self._processes = {name: _Process(name, up) for name, up in running.items()}
        self.listeners = []

    def get(self, name):
        return self._processes[name]

    def subscribe(self, listener):
        self.listeners.append(listener)


class _ScanningTracker(UptimeTracker):
    """The reference: recount the components that are not up from the
    per-component table on every callback, as ``_all_up()`` rescanned it."""

    def _sync_system_state(self):
        self._not_up = sum(
            1 for name in self.components if self._component_up_since.get(name) is None
        )
        super()._sync_system_state()


def _figures(tracker):
    return (
        tracker.system_outages,
        tracker.system_downtime,
        tracker.system_uptime,
        tracker.system_availability(),
        [
            (
                tracker.component_uptime(name),
                tracker.component_downtime(name),
                tracker.failures_of(name),
                tracker.observed_mttf(name),
                tracker.observed_mttr(name),
            )
            for name in tracker.components
        ],
    )


@settings(max_examples=150, deadline=None)
@given(
    running=st.lists(st.booleans(), min_size=1, max_size=8),
    steps=st.lists(
        st.tuples(
            st.floats(0.0, 50.0),
            st.integers(0, 8),
            st.sampled_from(["ready", "down:SIGKILL", "down:SIGTERM", "failed"]),
        ),
        max_size=60,
    ),
)
def test_counted_tracker_agrees_with_a_rescan_after_every_step(running, steps):
    names = [f"c{i}" for i in range(len(running))]
    manager = _Manager(dict(zip(names, running)))
    manager._processes["bystander"] = _Process("bystander", True)  # untracked
    counted = UptimeTracker(manager, names)
    scanning = _ScanningTracker(manager, names)
    assert _figures(counted) == _figures(scanning)
    for delay, index, event in steps:
        manager.kernel.now += delay
        process = manager.get(names[index] if index < len(names) else "bystander")
        for listener in manager.listeners:
            listener(process, event)
        assert counted._not_up == scanning._not_up
        assert _figures(counted) == _figures(scanning)
    for tracker in (counted, scanning):
        tracker.finalize()
    assert _figures(counted) == _figures(scanning)
    assert counted.system_uptime + counted.system_downtime == pytest.approx(
        manager.kernel.now
    )
