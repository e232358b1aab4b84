"""Event-driven waits against the step-and-poll loops they replaced.

``boot``, ``run_until_recovered``, ``run_until_quiescent`` and
``WorkloadPlane.drain`` are ``Kernel.run_until`` calls: the predicate is
re-read only after an event that called ``Kernel.wake``.  The reference
(``stepping_reference`` in ``tests/conftest.py``) re-reads it after every
event, so the two agree exactly when every transition a predicate reads has
a wake site — and a missing one shows up here as an overshoot: a later
return time, more events executed, a longer trace.
"""

import sys
from contextlib import contextmanager

import pytest

from repro.chaos import engine as chaos_engine
from repro.core.oracle import NaiveOracle
from repro.core.policy import RestartPolicy
from repro.core.recovery_strategies import StrategyMap
from repro.detection.abstract import AbstractSupervisor, SupervisorWatchdog
from repro.errors import ExperimentError
from repro.faults.injector import FaultInjector
from repro.mercury.config import PAPER_CONFIG, ComponentTiming
from repro.mercury.station import MercuryStation
from repro.mercury.trees import TREE_BUILDERS, tree_v
from repro.procmgr.manager import ProcessManager
from repro.sim.kernel import Kernel
from repro.workload.generator import WorkloadSpec
from repro.workload.plane import WorkloadPlane

from tests.conftest import spawn_simple
from tests.core.test_recovery_engine import Rig, _tree


def _outcome(kernel, value=None):
    """Everything the two wait implementations must agree on."""
    trace = [(r.time, r.source, r.kind, r.severity, r.data) for r in kernel.trace.records]
    return value, kernel.now, kernel.events_executed, trace


def _both(scenario, stepping_reference):
    event_driven = scenario()
    with stepping_reference():
        stepped = scenario()
    return event_driven, stepped


# ----------------------------------------------------------------------
# the four waits on full stations
# ----------------------------------------------------------------------


@pytest.mark.parametrize("strategy", [None, "restart", "microreboot"])
@pytest.mark.parametrize("kind", ["crash", "hang"])
@pytest.mark.parametrize("label", ["I", "II", "III", "IV", "V"])
def test_trial_agrees_with_stepping(label, kind, strategy, stepping_reference):
    def trial():
        station = MercuryStation(
            tree=TREE_BUILDERS[label](), seed=77, oracle="perfect",
            strategy=strategy, trace_capacity=50_000,
        )
        station.boot()
        plane = WorkloadPlane(station, WorkloadSpec(session_rate=4.0))
        plane.start()
        station.run_for(2.0)
        station.run_until_quiescent()
        # ses drags str down with it where they restart alone (resync).
        failure = station.injector.inject_simple("ses", kind=kind)
        mttr = station.run_until_recovered(failure, timeout=400.0)
        station.run_until_quiescent(timeout=600.0)
        plane.stop()
        plane.drain()
        assert plane.in_flight == 0
        return _outcome(station.kernel, mttr)

    event_driven, stepped = _both(trial, stepping_reference)
    assert event_driven[0] > 0.0
    assert event_driven == stepped


@pytest.mark.parametrize("scenario", ["store-outage", "rogue-oracle-crash"])
def test_chaos_scenario_agrees_with_stepping(scenario, stepping_reference, monkeypatch):
    """Store faults forcing strategy fallback, and supervisor kills whose
    ``reconcile_after_supervisor_restart`` is what lets quiescence through."""
    built = []

    class Recorded(MercuryStation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(chaos_engine, "MercuryStation", Recorded)

    def campaign():
        result = chaos_engine.run_chaos(
            tree_v(), scenario, trials=1, seed=7, snapshot=False
        )
        assert not result.violations
        return _outcome(built[-1].kernel, result)

    event_driven, stepped = _both(campaign, stepping_reference)
    if scenario == "rogue-oracle-crash":
        assert event_driven[0].supervisor_restarts > 0
    else:
        assert event_driven[0].store_outages > 0
    assert event_driven == stepped


# ----------------------------------------------------------------------
# one case per wake site, where that wake alone ends the wait
# ----------------------------------------------------------------------


@contextmanager
def _wake_log():
    """Record ``(time, calling function)`` of every ``Kernel.wake``."""
    log = []
    real = Kernel.wake

    def wake(self):
        log.append((self.now, sys._getframe(1).f_code.co_name))
        real(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Kernel, "wake", wake)
        yield log


def _abstract_rig(**policy_kwargs):
    kernel = Kernel(seed=1234)
    manager = ProcessManager(kernel, contention_coefficient=0.05)
    for name in ("a", "b", "c"):
        spawn_simple(manager, name, work=1.0)
    manager.start_all()
    kernel.run()
    injector = FaultInjector(kernel, manager)
    policy = RestartPolicy(_tree(), NaiveOracle(), **policy_kwargs)
    supervisor = AbstractSupervisor(
        kernel, manager, policy, monitored=["a", "b", "c"], observation_window=2.0
    )
    return kernel, manager, injector, policy, supervisor


def _engine_rig(**kwargs):
    kernel = Kernel(seed=1234)
    return Rig(kernel, ProcessManager(kernel, contention_coefficient=0.05), **kwargs)


def _site_notify_ready():
    kernel = Kernel(seed=1234)
    manager = ProcessManager(kernel)
    for name, work in (("a", 1.0), ("b", 2.0), ("c", 3.0)):
        spawn_simple(manager, name, work=work)
    manager.start_all()
    kernel.schedule_at(50.0, lambda: None)
    return kernel, kernel.run_until(manager.all_running, 100.0)


def _site_notify_down():
    kernel = Kernel(seed=1234)
    manager = ProcessManager(kernel)
    spawn_simple(manager, "a")
    manager.start_all()
    kernel.run()
    kernel.schedule_after(5.0, manager.kill, "a")
    kernel.schedule_after(50.0, lambda: None)
    return kernel, kernel.run_until(lambda: not manager.all_running(), 100.0)


def _site_engine_start():
    """A supervisor shot mid-action: only its restart makes it idle again."""
    kernel, _, injector, _, supervisor = _abstract_rig()
    SupervisorWatchdog(kernel, supervisor, period=1.0, grace=2.0)
    injector.inject_simple("a")
    while not supervisor.engine.busy:
        assert kernel.step()
    supervisor.crash()
    idle = kernel.run_until(lambda: not supervisor.engine.busy, kernel.now + 60.0)
    assert supervisor.restart_count == 1
    return kernel, idle


def _site_finish_restart():
    """A bisect ladder verifies on its own timer, after the last ready."""
    rig = _engine_rig(strategies=StrategyMap(default="bisect"))
    rig.fail("b", cure_set=["b", "c"])
    idle = rig.kernel.run_until(lambda: not rig.engine.busy, rig.kernel.now + 60.0)
    assert rig.kinds("bisect_probe")
    return rig.kernel, idle


def _site_expire_observation():
    rig = _engine_rig()
    rig.fail("a")
    kernel = rig.kernel
    return kernel, kernel.run_until(
        lambda: not rig.policy.open_episodes(), kernel.now + 60.0
    )


def _site_decide():
    """Budget of one: the escalating re-report is refused, the episode
    abandoned — and nothing else happens in that event."""
    kernel, _, injector, policy, _ = _abstract_rig(budget=1)
    injector.inject_joint("a", ["a", "b"])
    while not policy.open_episodes():
        assert kernel.step()
    closed = kernel.run_until(lambda: not policy.open_episodes(), kernel.now + 120.0)
    assert policy.give_ups == 1
    return kernel, closed


def _plane_on_tree_v(**spec):
    station = MercuryStation(tree=tree_v(), seed=21, trace_capacity=50_000)
    station.boot()
    plane = WorkloadPlane(station, WorkloadSpec(session_rate=20.0, **spec))
    plane.start()
    station.run_for(2.0)
    return station, plane


def _site_on_reply():
    station, plane = _plane_on_tree_v()
    while not plane.in_flight:
        assert station.kernel.step()
    plane.stop()
    plane.drain()
    assert plane.effects.requests_failed == 0
    return station.kernel, plane.in_flight == 0


def _site_timeout():
    """No bus, no retries: every in-flight chain ends on its timer."""
    station, plane = _plane_on_tree_v(max_retries=0, request_timeout_s=0.5)
    station.manager.kill("mbus")
    station.run_for(0.3)
    assert plane.in_flight > 0
    plane.stop()
    plane.drain()
    return station.kernel, plane.in_flight == 0


@pytest.mark.parametrize(
    ("scenario", "site"),
    [
        (_site_notify_ready, "_notify_ready"),
        (_site_notify_down, "_notify_down"),
        (_site_engine_start, "start"),
        (_site_finish_restart, "_finish_restart"),
        (_site_expire_observation, "_expire_observation"),
        (_site_decide, "_decide"),
        (_site_on_reply, "_on_reply"),
        (_site_timeout, "_timeout"),
    ],
)
def test_each_wake_site_alone_ends_a_wait(scenario, site, stepping_reference):
    with _wake_log() as wakes:
        kernel, satisfied = scenario()
    assert satisfied
    # By construction, not by luck: nothing else woke the kernel at the
    # instant the wait returned, so deleting this site's wake overshoots.
    assert {caller for when, caller in wakes if when == kernel.now} == {site}
    with stepping_reference():
        stepped_kernel, _ = scenario()
    assert _outcome(kernel) == _outcome(stepped_kernel)


def test_each_of_the_four_waits_is_a_run_until_call(monkeypatch):
    calls = []
    real = Kernel.run_until

    def counted(self, predicate, until=None):
        calls.append(sys._getframe(1).f_code.co_name)
        return real(self, predicate, until)

    monkeypatch.setattr(Kernel, "run_until", counted)
    station, plane = _plane_on_tree_v()
    failure = station.injector.inject_simple("rtu")
    station.run_until_recovered(failure)
    station.run_until_quiescent()
    plane.stop()
    plane.drain()
    assert sorted(set(calls)) == [
        "boot", "drain", "run_until_quiescent", "run_until_recovered"
    ]


# ----------------------------------------------------------------------
# deadlines: nothing later than the deadline runs, the clock stops on it
# ----------------------------------------------------------------------


def _booted_v():
    station = MercuryStation(tree=tree_v(), seed=5)
    station.boot()
    return station


def test_boot_timeout_stops_at_the_deadline():
    timings = dict(PAPER_CONFIG.timings, pbcom=ComponentTiming(work=400.0))
    station = MercuryStation(
        tree=tree_v(), seed=5, config=PAPER_CONFIG.with_overrides(timings=timings)
    )
    with pytest.raises(ExperimentError, match="failed to boot"):
        station.boot()
    assert station.kernel.now == 300.0
    assert not station.manager.get("pbcom").is_running


def test_run_until_recovered_timeout_stops_at_the_deadline():
    station = _booted_v()
    failure = station.injector.inject_simple("rtu")
    executed = station.kernel.events_executed
    deadline = failure.injected_at + 1e-6
    assert station.kernel.peek_next_time() > deadline
    with pytest.raises(ExperimentError, match="not recovered"):
        station.run_until_recovered(failure, timeout=1e-6)
    assert station.kernel.now == deadline
    assert station.kernel.events_executed == executed


def test_run_until_quiescent_timeout_stops_at_the_deadline():
    """The old loop ran the first event past the deadline whatever its
    time, and could then pass its final check without ever settling."""
    station = _booted_v()
    station.injector.inject_simple("rtu")
    executed = station.kernel.events_executed
    deadline = station.kernel.now + 1e-6
    assert station.kernel.peek_next_time() > deadline
    with pytest.raises(ExperimentError, match="not quiescent"):
        station.run_until_quiescent(timeout=1e-6)
    assert station.kernel.now == deadline
    assert station.kernel.events_executed == executed


def test_drain_timeout_stops_at_the_deadline():
    station = _booted_v()
    plane = WorkloadPlane(station, WorkloadSpec(session_rate=50.0))
    plane.start()
    station.run_for(1.0)
    station.manager.kill("mbus")
    station.run_for(0.5)
    plane.stop()
    in_flight = plane.in_flight
    assert in_flight > 0
    executed = station.kernel.events_executed
    deadline = station.kernel.now + 1e-6
    assert station.kernel.peek_next_time() > deadline
    plane.drain(timeout=1e-6)
    assert plane.in_flight == in_flight
    assert station.kernel.now == deadline
    assert station.kernel.events_executed == executed
