"""Folded quiet rounds at their edges, against FD stepping every round.

FD folds a round that cannot see anything and sleeps on the kernel's
supervision clock until something pokes it (DESIGN.md §9, "Quiet rounds").
The reference is ``REFERENCES["every-round"]`` (``tests/differential.py``):
no round folds.  Each rig runs both ways through the one ``compare`` —
equal values (MTTR, or the station state a fail-slow fault leaves),
``kernel.now``, trace records and JSONL, and event counts apart by exactly
the folded rounds' hops and timers and the deadline checks REC saved by
sleeping on the fold.

The sharpest edge is a kill inside a folded round's hops: stepping, the
round's ping to the victim is lost in flight and judged a miss at
``tick + reply_timeout``; the woken FD must replay that round, not judge a
round later.
"""

import pickle
import random

import pytest

from repro.experiments.snapshot import fork
from repro.mercury.station import MercuryStation
from repro.mercury.trees import TREE_BUILDERS, tree_v
from repro.obs import events as ev
from repro.procmgr.process import SimProcess
from tests.differential import Case, Run, compare

BASE = 0.0002  # the station's LatencyModel.base: one ping hop


def _booted(**kwargs):
    station = MercuryStation(tree=tree_v(), seed=5, trace_capacity=100_000, **kwargs)
    station.boot()
    return station


def _grid_tick_ahead(station, rounds=3):
    """An FD grid tick ``rounds`` or more periods from now, computed as the
    tick chain computes it: by repeated addition from FD's first tick."""
    fd = station.fd
    tick = fd._started_at + fd.ping_period
    while tick < station.kernel.now + rounds * fd.ping_period:
        tick += fd.ping_period
    return tick


def _at(station, when, action):
    """Run ``action()`` at ``when`` (scheduled now, ahead of the round it
    lands in); returns the list its result and the fold state go to."""
    seen = []

    def fire():
        seen.append(station.kernel.supervision.folded)
        seen.append(action())

    station.kernel.schedule_at(when, fire)
    station.run_for(when - station.kernel.now + 1e-6)
    return seen


def _seqs(station):
    """The last sequence numbers FD handed out, to components and to REC.
    A catch-up accounts for every folded round's pings, landed or in
    flight, so on a station that is stepping again they match stepping's,
    though no trace record carries them."""
    return station.fd._seq, station.fd._rec_seq


@pytest.mark.parametrize("target", ["rtu", "mbus"])
@pytest.mark.parametrize(
    "offset", [0.0, 0.5 * BASE, BASE, 2 * BASE, 3 * BASE, 4 * BASE, 0.1, 0.2]
)
def test_a_kill_inside_a_folded_round_is_judged_as_stepping_judges_it(target, offset):
    folded_at_kill = []

    def run(jsonl):
        station = _booted()
        station.kernel.trace.add_sink(jsonl)
        when = _grid_tick_ahead(station) + offset
        folded, failure = _at(
            station, when, lambda: station.injector.inject_simple(target)
        )
        folded_at_kill.append(folded)
        mttr = station.run_until_recovered(failure)
        detected = station.trace.first(ev.DETECTION, component=target)
        return Run(station.kernel, (mttr, detected.time - when, _seqs(station)))

    compare("every-round", Case(f"kill {target} at tick+{offset}", run))
    assert folded_at_kill == [True, False]


@pytest.mark.parametrize("mode", ["hang", "zombie"])
@pytest.mark.parametrize("offset", [0.0, 2 * BASE, 0.5])
def test_a_fail_slow_fault_inside_a_folded_round(mode, offset):
    """A hung rtu stops answering the ping in flight and is restarted; a
    zombie answers pings (no prober runs), so FD steps beside it for good."""

    folded_at_fault = []

    def run(jsonl):
        station = _booted()
        station.kernel.trace.add_sink(jsonl)
        when = _grid_tick_ahead(station) + offset
        folded, failure = _at(
            station, when, lambda: station.injector.inject_simple("rtu", kind=mode)
        )
        folded_at_fault.append(folded)
        station.run_for(30.0)
        rtu = station.manager.get("rtu")
        return Run(
            station.kernel,
            (rtu.degraded_mode, rtu.start_count, station.injector.is_active(failure.failure_id)),
        )

    compare("every-round", Case(f"{mode} rtu at tick+{offset}", run))
    assert folded_at_fault == [True, False]


@pytest.mark.parametrize("seed", range(20))
def test_faults_near_grid_ticks_agree_with_stepping(seed):
    """Three crashes or hangs, each within 1.2 ms after a grid tick of a
    random tree's station, some landing mid-recovery: the fixed offsets
    above at random points in between."""

    def run(jsonl):
        rng = random.Random(seed)
        tree = rng.choice(sorted(TREE_BUILDERS))
        station = MercuryStation(
            tree=TREE_BUILDERS[tree](), seed=seed, trace_capacity=100_000
        )
        station.kernel.trace.add_sink(jsonl)
        station.boot()
        for _ in range(3):
            when = _grid_tick_ahead(station, rng.uniform(2.0, 7.0)) + rng.uniform(0.0, 0.0012)
            target = rng.choice(station.manager.names)
            kind = rng.choice(["crash", "crash", "hang"])
            station.kernel.schedule_at(when, station.injector.inject_simple, target, kind)
            station.run_for(when - station.kernel.now + rng.uniform(0.5, 20.0))
        station.run_for(120.0)
        counts = sorted((p.name, p.start_count) for p in station.manager.processes())
        return Run(station.kernel, (tree, counts, len(station.injector.active_failures)))

    compare("every-round", Case(f"faults near ticks, seed {seed}", run))


def _rec_asleep(station):
    """Whether REC's FD watchdog sleeps on the supervision clock."""
    clock = station.kernel.supervision
    return clock.folded and clock._watchdog == station.rec._wake_fd_deadline


def _fault_fd(station, mode, when):
    """``mode`` FD at ``when``; returns whether REC slept through to the
    fault, and the instant REC restarted FD, from the fault."""
    asleep = []

    def fire():
        asleep.append(_rec_asleep(station))
        station.injector.inject_simple("fd", kind=mode)

    station.kernel.schedule_at(when, fire)
    station.run_for(when - station.kernel.now + 10.0)
    (restart,) = station.trace.filter(kind=ev.FD_RESTART)
    return asleep[0], restart.time - when


@pytest.mark.parametrize("mode", ["crash", "hang", "zombie"])
@pytest.mark.parametrize("offset", [0.0, 2 * BASE, 0.5])
def test_an_fd_fault_mid_fold_is_restarted_at_the_stepping_instant(mode, offset):
    """A dead, hung or zombie FD sends REC no heartbeat.  REC slept on the
    fold; the fault's poke wakes it after FD's catch-up, and its deadline
    restarts FD exactly when the deadline chain of stepped rounds does."""
    asleep = []

    def run(jsonl):
        station = _booted(solution_period=1e6)
        station.kernel.trace.add_sink(jsonl)
        slept, restarted = _fault_fd(station, mode, _grid_tick_ahead(station) + offset)
        asleep.append(slept)
        return Run(station.kernel, (restarted, station.manager.get("fd").start_count))

    compare("every-round", Case(f"{mode} fd at tick+{offset}", run))
    assert asleep == [True, False]


@pytest.mark.parametrize("poke", ["bare", "rtu crash"])
def test_rec_sleeps_again_after_a_poke_and_misses_no_wake(poke):
    """A poke wakes FD and REC; FD folds again, and so does REC's next
    deadline check.  A hang of FD after that still wakes REC in time to
    restart FD at the stepping instant."""
    asleep = []

    def run(jsonl):
        station = _booted(solution_period=1e6)
        station.kernel.trace.add_sink(jsonl)
        when = _grid_tick_ahead(station) + 0.3
        if poke == "bare":
            station.kernel.schedule_at(when, station.kernel.supervision.poke)
        else:
            station.kernel.schedule_at(when, station.injector.inject_simple, "rtu")
        station.run_for(when - station.kernel.now + 30.0)
        slept, restarted = _fault_fd(station, "hang", _grid_tick_ahead(station) + 0.3)
        asleep.append(slept)
        return Run(station.kernel, restarted)

    compare("every-round", Case(f"{poke} poke, then hang fd", run))
    assert asleep == [True, False]


@pytest.mark.parametrize("copy", ["fork", "template blob"])
def test_a_copy_of_a_sleeping_station_wakes_its_own_rec(copy):
    """The sleeping watchdog is a bound method, so a station forked or
    stored while REC sleeps carries it to its own REC: a fault in the copy
    wakes the copy's REC, which restarts the copy's FD, and the original
    sleeps on; the same fault in the original then runs identically."""
    template = _booted(solution_period=1e6)
    template.run_for(10.0)
    assert _rec_asleep(template)
    heard = template.rec._fd_heard_at
    station = fork(template) if copy == "fork" else pickle.loads(pickle.dumps(template))
    assert _rec_asleep(station)
    when = _grid_tick_ahead(station) + 0.3

    restarted = _fault_fd(station, "hang", when)
    assert station.rec._fd_heard_at > heard
    assert _rec_asleep(template) and template.rec._fd_heard_at == heard
    assert not template.trace.filter(kind=ev.FD_RESTART)
    assert restarted[0]  # the copy's REC slept until the hang
    assert _fault_fd(template, "hang", when) == restarted


def test_the_clock_is_not_a_lifecycle_listener(monkeypatch):
    """A degradation pokes the supervision clock, yet an abstract-supervisor
    station — no FD to wake — still never observes it: nothing restarts the
    hung component, and no lifecycle listener heard of it."""
    notified = []
    real = SimProcess._degrade

    def degrade(self, mode, failure=None):
        listeners = list(self.manager._listeners)
        changed = real(self, mode, failure)
        assert list(self.manager._listeners) == listeners
        notified.append(changed)
        return changed

    monkeypatch.setattr(SimProcess, "_degrade", degrade)
    station = MercuryStation(tree=tree_v(), seed=5, supervisor="abstract")
    station.boot()
    heard = []
    station.manager.subscribe(lambda process, event: heard.append((process.name, event)))
    station.injector.inject_simple("rtu", kind="hang")
    station.run_for(120.0)

    assert notified == [True]
    assert heard == []
    assert station.manager.get("rtu").degraded_mode == "hang"
    assert not station.kernel.supervision.folded
    assert not station.trace.filter(kind=ev.RESTART_ORDERED)


def test_a_healthy_station_folds_every_round_after_boot():
    """Ten minutes of a healthy tree-V station with its application traffic
    parked: not one kernel event runs.  No ping round runs, and REC's FD
    deadline sleeps on the supervision clock instead of re-arming from FD's
    folded heartbeats every two rounds."""
    station = MercuryStation(tree=tree_v(), seed=5, solution_period=1e6)
    station.boot()
    station.run_for(10.0)
    kernel = station.kernel
    executed = kernel.events_executed
    assert kernel.supervision.folded
    station.run_for(600.0)

    assert _rec_asleep(station)
    assert kernel.events_executed == executed
    assert not station.trace.filter(kind=ev.FD_RESTART)
