"""Folded paths of stepped rounds, and off-bus rounds, against stepping.

A round with a path in doubt steps only that path; the sure paths take
their sequence numbers and send nothing, and a poke inside the round's
flight window replays their hops in flight (DESIGN.md §9, "Quiet rounds").
A round in which FD is off the bus while REC restarts mbus folds whole,
and its catch-up parks the dial tickets its refused attempts would have.
The reference is ``REFERENCES["every-round"]`` (``tests/differential.py``):
every path of every round steps.  Each rig runs both ways through the one
``compare``: equal values, ``kernel.now``, trace records and JSONL, and
event counts apart by exactly the folded hops and timers.

A replayed hop joins its instant's bucket after the stepped hops already
queued there.  Where both would leave a record at that instant the two
records swap; the rigs whose stepped path the broker cannot route pin
that order instead of comparing it (:func:`_swapped_unroutables`).
"""

from contextlib import nullcontext

import pytest

from repro.mercury.station import MercuryStation
from repro.mercury.trees import TREE_BUILDERS
from repro.obs import events as ev
from tests.detection.test_quiet_rounds import BASE, _at, _grid_tick_ahead, _seqs
from tests.differential import REFERENCES, Case, Run, compare

OFFSETS = [0.0, 0.5 * BASE, BASE, 2 * BASE, 3 * BASE, 4 * BASE, 0.1, 0.2]


def _booted(tree="V"):
    station = MercuryStation(tree=TREE_BUILDERS[tree](), seed=5, trace_capacity=100_000)
    station.boot()
    return station


def _partial_round(station, dead, victim, mode, offset):
    """Crash ``dead`` half a period before a grid tick, so that the tick's
    round steps its path, then ``mode`` ``victim`` at ``tick + offset``;
    returns whether that round had folded paths still to replay at the
    fault, the fault and the tick."""
    tick = _grid_tick_ahead(station)
    station.kernel.schedule_at(tick - 0.5, station.injector.inject_simple, dead)
    flight = []

    def fault():
        held = station.fd._flight
        flight.append(held is not None and held[0] == tick)
        return station.injector.inject_simple(victim, kind=mode)

    _, failure = _at(station, tick + offset, fault)
    return flight[0], failure, tick


#: (stepped path, folded victim): a victim before and one after the
#: stepped path in tree V's ``monitored`` (mbus, fedr, pbcom, ses, str, rtu).
SHAPES = {"before": ("rtu", "ses"), "after": ("fedr", "str")}


def _swapped_unroutables(shape, mode, offset):
    """Whether the victim's first hop is replayed onto the instant the
    stepped path's ping is dropped unroutable at mbus, both leaving a
    ``bus_unroutable`` record there: a crash of a path ahead of the stepped
    one in ``monitored`` inside ``(tick, tick + b]``."""
    return shape == "before" and mode == "crash" and 0.0 < offset <= BASE


@pytest.mark.parametrize(
    "shape,mode,offset",
    [
        (shape, mode, offset)
        for shape in sorted(SHAPES)
        for mode in ("crash", "hang", "zombie")
        for offset in OFFSETS
        if not _swapped_unroutables(shape, mode, offset)
    ],
)
def test_a_fault_on_a_folded_path_of_a_stepped_round(shape, mode, offset):
    dead, victim = SHAPES[shape]
    held = []

    def run(jsonl):
        station = _booted()
        station.kernel.trace.add_sink(jsonl)
        flight, failure, tick = _partial_round(station, dead, victim, mode, offset)
        held.append(flight)
        station.run_for(30.0)
        station.kernel.supervision.poke()  # catch the sequence numbers up
        detected = station.trace.first(ev.DETECTION, component=victim)
        counts = sorted((p.name, p.start_count) for p in station.manager.processes())
        return Run(
            station.kernel,
            (
                detected and detected.time - tick,
                counts,
                station.injector.is_active(failure.failure_id),
                _seqs(station),
            ),
        )

    compare("every-round", Case(f"{mode} {victim} beside {dead} at tick+{offset}", run))
    # A fault at the tick's own instant, scheduled before the round began,
    # lands first: the round then steps the victim's path too.
    assert held == [offset > 0, False]


@pytest.mark.parametrize("offset", [0.5 * BASE, BASE])
def test_a_replayed_hop_lands_after_the_stepped_ones(offset):
    """ses, ahead of the dead rtu in ``monitored``, is crashed while its
    folded ping is on its first hop: mbus drops both pings unroutable at
    ``tick + b``, stepping's in the order they were sent, the folded run's
    stepped one first.  Everything else agrees: the two runs' traces are
    equal once those two records are swapped back, and so are their
    values and the instants of every other record."""
    runs = {}
    for name, patch in (("folded", nullcontext), ("stepped", REFERENCES["every-round"].patch)):
        with patch():
            station = _booted()
            flight, failure, tick = _partial_round(station, "rtu", "ses", "crash", offset)
            station.run_for(30.0)
            station.kernel.supervision.poke()
        records = [
            (r.time, r.source, r.kind, r.data) for r in station.kernel.trace.records
        ]
        counts = sorted((p.name, p.start_count) for p in station.manager.processes())
        runs[name] = (flight, tick, records, counts, _seqs(station), station.kernel.now)
    folded, stepped = runs["folded"], runs["stepped"]
    assert folded[0] and not stepped[0]
    tick = folded[1]
    at_hop = [
        i for i, r in enumerate(folded[2])
        if r[0] == tick + BASE and r[2] == ev.BUS_UNROUTABLE
    ]
    assert [folded[2][i][3]["target"] for i in at_hop] == ["rtu", "ses"]
    assert [stepped[2][i][3]["target"] for i in at_hop] == ["ses", "rtu"]
    swapped = list(folded[2])
    swapped[at_hop[0]], swapped[at_hop[1]] = swapped[at_hop[1]], swapped[at_hop[0]]
    assert swapped == stepped[2]
    assert folded[3:] == stepped[3:]


def _listens(station):
    """Record the dial tickets parked on the bus address at each of mbus's
    ``listen`` calls."""
    network = station.network
    listen = network.listen
    seen = []

    def recording(address, on_accept):
        if address == station.fd.bus_address:
            seen.append(
                [
                    (client, tick, interval, callback.__name__)
                    for client, tick, interval, callback in network._parked.get(address, ())
                ]
            )
        return listen(address, on_accept)

    network.listen = recording
    return seen


def _off_bus_folds(station):
    """Count the catch-ups of rounds folded while FD was off the bus."""
    fd = station.fd
    catch_up = fd._catch_up
    folds = []

    def counting():
        folds.append(fd._endpoint is None)
        catch_up()

    fd._catch_up = counting
    return folds


@pytest.mark.parametrize(
    "tree,target", [("V", "mbus"), ("I", "ses"), ("I", "mbus")]
)
def test_an_off_bus_fold_parks_the_tickets_stepping_parks(tree, target):
    """An mbus restart on tree V, and tree I's root restart: FD holds the
    same dial tickets at mbus's listen, one per off-bus round, and
    reconnects at the stepping instant."""
    off_bus = []

    def run(jsonl):
        station = _booted(tree)
        station.kernel.trace.add_sink(jsonl)
        listens = _listens(station)
        folds = _off_bus_folds(station)
        when = _grid_tick_ahead(station) + 0.3
        _, failure = _at(station, when, lambda: station.injector.inject_simple(target))
        mttr = station.run_until_recovered(failure)
        station.run_for(5.0)
        station.kernel.supervision.poke()  # catch the sequence numbers up
        off_bus.append(sum(folds))
        reconnects = [
            r.time for r in station.trace.filter(kind=ev.BUS_CONNECTED) if r.source == "fd"
        ]
        return Run(station.kernel, (mttr, listens, reconnects, _seqs(station)))

    def check(value, counts):
        _, listens, reconnects, _ = value
        assert listens and len(listens[-1]) > 2  # one ticket per off-bus round
        assert reconnects

    compare("every-round", Case(f"{target} crash on tree {tree}", run, check))
    assert off_bus[0] > 0 and off_bus[1] == 0


@pytest.mark.parametrize("victim", ["rec", "fd"])
def test_a_supervisor_killed_during_an_off_bus_fold(victim):
    """REC, or FD itself, crashes while FD folds its off-bus rounds during
    an mbus restart on tree V: the kill's poke catches FD up first, and the
    station recovers both as stepping recovers them."""
    folded_at_kill = []

    def run(jsonl):
        station = _booted()
        station.kernel.trace.add_sink(jsonl)
        listens = _listens(station)
        when = _grid_tick_ahead(station) + 0.3
        _, failure = _at(station, when, lambda: station.injector.inject_simple("mbus"))

        def kill():
            folded_at_kill.append(
                station.kernel.supervision.folded and station.fd._endpoint is None
            )
            station.injector.inject_simple(victim)

        station.kernel.schedule_at(when + 3.0, kill)
        station.run_for(60.0)
        counts = sorted((p.name, p.start_count) for p in station.manager.processes())
        return Run(station.kernel, (counts, listens, station.network.dials_parked))

    compare("every-round", Case(f"kill {victim} mid off-bus fold", run))
    assert folded_at_kill == [True, False]
