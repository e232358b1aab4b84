"""Folded solves at their edges, against ses solving every tick.

ses folds the solves of its track/tune loop that change nothing but
counters, and catches them up when something could read or disturb them
(DESIGN.md §9, "Folded solves").  The reference is
``REFERENCES["every-solve"]`` (``tests/differential.py``): no solve folds.
Each rig runs both ways through the one ``compare`` — equal values (the
recovery, and the loop's ledger: ses's solutions, str's tracks and the
antenna's last pointing, rtu's tunes and last forward, the broker's routed
count and the loop channels' counters), ``kernel.now``, trace records and
JSONL, and event counts apart by exactly the folded solves' events and
hops.

The sharp edges are the hops of a folded solve still in flight — up to
three hops, under a millisecond, after its tick — when a fault, a ping or
a warm point lands among them.
"""

import pytest

from repro.experiments.snapshot import boot_seed, clear_templates, warmed_station
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_v
from repro.obs import events as ev
from tests.differential import Case, Run, compare

HOP = 0.0002  # the station's LatencyModel.base: the shortest hop
OFFSETS = [0.0, 0.5 * HOP, HOP, 2 * HOP, 3 * HOP]


def _booted(seed=5):
    station = MercuryStation(tree=tree_v(), seed=seed, trace_capacity=100_000)
    station.boot()
    return station


def _ses(station):
    return station.manager.get("ses").behavior


def _ticks(station):
    """ses's solve grid from its last start, as its solve chain computes it."""
    ready = station.trace.filter(kind=ev.PROCESS_READY, name="ses")[-1].time
    period = _ses(station).solution_period
    tick = ready + period
    while True:
        yield tick
        tick += period


def _folded_tick(seed=5, after=20.0):
    """A tick after ``after`` s whose solve a healthy station folds (the
    same grid on either side of a comparison: both boot alike)."""
    station = _booted(seed)
    station.run_for(after)
    ses = _ses(station)
    for tick in _ticks(station):
        if tick >= station.kernel.now:
            station.run_for(tick - station.kernel.now)
            if ses._folded is not None and ses._fold_tick <= tick < ses._fold_end:
                return tick


def _ledger(station):
    """Everything the loop's solves leave behind."""
    ses = _ses(station)
    tracker = station.manager.get("str").behavior
    tuner = station.manager.get("rtu").behavior
    broker = station.manager.get("mbus").behavior
    antenna = station.hardware.antenna
    links = [
        endpoint._channel
        for endpoint in (ses.endpoint, tracker.endpoint, tuner.endpoint)
        if endpoint is not None
    ]
    return (
        ses.solutions_sent,
        tracker.track_commands,
        (antenna.azimuth_deg, antenna.elevation_deg, antenna.last_pointed_at, antenna.point_count),
        tuner.tune_commands,
        tuner._last_forward_at,
        broker.routed,
        [(c.messages_sent, c.messages_delivered, c.messages_lost) for c in links],
    )


def _at(station, when, action):
    """Run ``action()`` at ``when``; returns whether ses was folded then."""
    folded = []

    def fire():
        folded.append(_ses(station)._folded is not None)
        action()

    station.kernel.schedule_at(when, fire)
    station.run_for(when - station.kernel.now + 1e-6)
    return folded[0]


@pytest.mark.parametrize("target", ["ses", "str", "rtu", "mbus", "fedr"])
@pytest.mark.parametrize("mode", ["crash", "hang"])
@pytest.mark.parametrize("offset", OFFSETS)
def test_a_fault_inside_a_folded_solve_agrees_with_every_solve(target, mode, offset):
    when = _folded_tick() + offset
    folded_at_fault = []

    def run(jsonl):
        station = _booted()
        station.kernel.trace.add_sink(jsonl)
        failures = []
        folded_at_fault.append(
            _at(station, when, lambda: failures.append(
                station.injector.inject_simple(target, kind=mode)
            ))
        )
        mttr = station.run_until_recovered(failures[0], timeout=120.0)
        station.run_for(25.0)  # folding again, past a refresh
        return Run(station.kernel, (mttr, _ledger(station)))

    compare("every-solve", Case(f"{mode} {target} at solve+{offset}", run))
    assert folded_at_fault == [True, False]


@pytest.mark.parametrize("component", ["ses", "str", "rtu"])
@pytest.mark.parametrize("offset", OFFSETS)
def test_an_fd_ping_inside_a_folded_solve_agrees_with_every_solve(component, offset):
    """A ping a stepped round sends to a loop component meets the folded
    solve's hops on the loop's links (the FIFO clamp), so the send wakes
    the fold to replay them first."""
    when = _folded_tick() + offset
    folded_at_ping = []

    def run(jsonl):
        station = _booted()
        station.kernel.trace.add_sink(jsonl)
        fd = station.fd
        folded_at_ping.append(
            _at(station, when, lambda: fd._send_ping_wire(component, fd._seq + 1000))
        )
        station.run_for(25.0)
        return Run(station.kernel, _ledger(station))

    compare("every-solve", Case(f"ping {component} at solve+{offset}", run))
    assert folded_at_ping == [True, False]


def _warm_to(tick):
    def warm(station):
        station.boot()
        station.run_for(tick - station.kernel.now)

    return warm


@pytest.mark.parametrize("offset", [0.5 * HOP, 2 * HOP, 1.0])
def test_a_template_frozen_mid_fold_restores_as_every_solve_boots(offset):
    """A warm point among a folded solve's hops: the draws the fold owed
    before it are drawn from the boot seed, as stepping drew them, before
    the cell's rebase — restored or booted afresh."""
    # The template boots under the shape's seed: find a folded tick on
    # that station's own grid.
    shape = "test-folded-solves"
    probe = _station(boot_seed(shape))
    probe.boot()
    probe.run_for(20.0)
    ses = _ses(probe)
    warm_end = next(t for t in _ticks(probe) if t >= probe.kernel.now)
    probe.run_for(warm_end - probe.kernel.now)
    assert ses._folded is not None and ses._fold_tick <= warm_end < ses._fold_end
    warm_end += offset

    def run_with(snapshot):
        def run(jsonl):
            clear_templates()
            station = warmed_station(shape, _station, _warm_to(warm_end), 11, snapshot=snapshot)
            station.kernel.trace.add_sink(jsonl)
            station.run_for(30.0)
            failure = station.injector.inject_simple("fedr")
            mttr = station.run_until_recovered(failure, timeout=120.0)
            station.run_for(10.0)
            return Run(station.kernel, (mttr, _ledger(station)))

        return run

    compare("every-solve", Case(f"restored, warm at solve+{offset}", run_with(True)))
    compare("every-solve", Case(f"booted, warm at solve+{offset}", run_with(False)))
    clear_templates()


def _station(seed):
    return MercuryStation(tree=tree_v(), seed=seed, trace_capacity=100_000)
