"""Vouched wires in the places a plain ``str`` used to sit.

A :class:`~repro.xmlcmd.fastpath.Wire` rides the kernel queue, the
session-store replay log and the fault fabric's duplicate deliveries, and
is deep-copied (snapshot fork) and pickled (template-store blob) with the
station around it.  Each test here runs one of those with wires present
and asserts what the codec's unit tests cannot: that the *station* behaves
the same afterwards.
"""

import collections
import copy
import pickle

import pytest

from repro.bus.broker import BusBroker
from repro.bus.client import BusClient
from repro.components.base import BusAttachedBehavior
from repro.experiments.runner import execute_cell, plan_cell
from repro.experiments.snapshot import fork
from repro.mercury.session_store import SessionStore
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_v
from repro.procmgr.manager import ProcessManager
from repro.procmgr.process import ProcessSpec, constant_work
from repro.sim.kernel import Kernel
from repro.transport.network import Network, NetworkFaultModel
from repro.xmlcmd import commands, fastpath
from repro.xmlcmd.commands import CommandMessage, encode_message
from repro.xmlcmd.fastpath import Wire
from tests.differential import REFERENCES


def _station_with_a_wire_in_flight():
    station = MercuryStation(tree=tree_v(), seed=3)
    station.boot()
    for _ in range(500):
        station.kernel.step()
        blob = pickle.dumps(station, pickle.HIGHEST_PROTOCOL)
        if b"vouch" in blob:  # Wire.__reduce__ names its constructor
            return station, blob
    raise AssertionError("no vouched wire was ever queued")


def _next_seconds(station, seconds=60.0):
    # A minute: a healthy station folds its quiet ping rounds and most of
    # ses's solves, so it runs under one event a second (41 per thirty
    # solve periods, tests/test_hop_inventory.py), mostly the tunes rtu
    # forwards to the radio (each traced); solving every period, it runs
    # five events per solve.
    first = len(station.kernel.trace.records)
    executed = station.kernel.events_executed
    station.kernel.run(until=station.kernel.now + seconds)
    return (
        station.kernel.events_executed - executed,
        [
            (r.time, r.source, r.kind, tuple(sorted(r.data.items())))
            for r in station.kernel.trace.records[first:]
        ],
    )


def _assert_fork_and_blob_carry_wires_in_flight(least_events):
    station, blob = _station_with_a_wire_in_flight()
    forked = fork(station)
    thawed = pickle.loads(blob)
    expected = _next_seconds(station)
    assert expected[0] >= least_events and expected[1]
    assert _next_seconds(forked) == expected
    assert _next_seconds(thawed) == expected


def test_snapshot_fork_and_template_blob_carry_wires_in_flight():
    _assert_fork_and_blob_carry_wires_in_flight(least_events=30)


def test_fork_and_blob_carry_wires_in_flight_solving_every_period():
    with REFERENCES["every-solve"].patch():
        _assert_fork_and_blob_carry_wires_in_flight(least_events=100)


class Scribbler(BusAttachedBehavior):
    """Records each command's params, then vandalises the dict it was given."""

    def __init__(self, process, network, session_store=None):
        super().__init__(process, network, session_store=session_store)
        self.seen = []

    def on_message(self, message):
        assert type(message) is CommandMessage
        self.seen.append(dict(message.params))
        message.params["req"] = "scribbled"
        message.params.clear()


def _bus_with(behavior_factory, faults=None):
    kernel = Kernel(seed=7)
    network = Network(kernel, faults=faults(kernel) if faults else None)
    manager = ProcessManager(kernel)
    manager.spawn(
        ProcessSpec("mbus", constant_work(0.5), lambda p: BusBroker(p, network))
    )
    process = manager.spawn(
        ProcessSpec("svc", constant_work(0.5), lambda p: behavior_factory(p, network))
    )
    manager.start_all()
    kernel.run(until=kernel.now + 3.0)
    ops = BusClient(kernel, network, "ops")
    ops.connect()
    kernel.run(until=kernel.now + 0.5)
    return kernel, network, manager, process, ops


def test_a_duplicated_delivery_does_not_see_the_first_receivers_edits():
    def duplicate_everything(kernel):
        faults = NetworkFaultModel(kernel)
        faults.degrade("svc", "mbus", duplicate_probability=1.0)
        return faults

    kernel, network, _, process, ops = _bus_with(Scribbler, duplicate_everything)
    request = CommandMessage("ops", "svc", "telemetry-query", {"req": "7", "pad": " x "})
    ops.send(request)
    kernel.run(until=kernel.now + 1.0)
    assert network.faults.messages_duplicated >= 1
    # Both copies of the one wire object decode to what was sent (values
    # stripped, as the text decoder would).
    assert process.behavior.seen == [{"req": "7", "pad": "x"}] * 2


def test_session_store_log_replays_the_wire_it_was_given():
    store = SessionStore()
    wire = encode_message(CommandMessage("ops", "svc", "telemetry-query", {"req": "7"}))
    store.log_message("svc", wire)
    store.log_message("svc", "<plain/>")
    clones = (fork(store), copy.deepcopy(store), pickle.loads(pickle.dumps(store)))
    for each in (store, *clones):
        first, second = each.replay_log("svc")
        assert type(first) is Wire and first == wire
        assert (first.envelope, first.memo) == (wire.envelope, wire.memo)
        assert type(second) is str


def test_replay_window_refeeds_logged_wires_through_the_receive_path():
    """A ``replay``-hinted restart: the logged wire is decoded from its memo
    again, into a fresh params dict the first delivery's edits never reach."""
    store = SessionStore()
    kernel, _, manager, process, ops = _bus_with(
        lambda p, network: Scribbler(p, network, session_store=store)
    )
    ops.send(CommandMessage("ops", "svc", "telemetry-query", {"req": "7"}))
    kernel.run(until=kernel.now + 1.0)
    assert store.messages_logged == 1
    manager.kill("svc")
    manager.start("svc", hint="replay")
    kernel.run(until=kernel.now + 3.0)
    assert store.messages_replayed == 1
    # The live delivery, then the replayed one (the behavior object outlives
    # its process's incarnations).
    assert process.behavior.seen == [{"req": "7"}] * 2


@pytest.mark.parametrize(
    "cell",
    [
        plan_cell("recovery", 7, tree="V", component="rtu", trials=2),
        plan_cell(
            "workload", 7, tree="V", trials=1, strategy="restart",
            failure_kind="crash", request_rate=20.0,
        ),
        plan_cell("chaos", 7, tree="V", scenario="mixed", trials=1),
    ],
    ids=lambda cell: cell.kind,
)
def test_a_faulted_cell_never_builds_or_reads_an_element_tree(monkeypatch, cell):
    """Every message a station sends — the FD↔REC failure reports and
    restart orders included — leaves its encoder as a ``Wire`` and is
    decoded from the memo: the element pipeline never runs, and no receive
    site is handed plain text for the envelope scan."""
    calls = collections.Counter()
    counted_names = {
        commands: ("parse_xml", "serialize_xml", "encode_report_wire", "encode_order_wire"),
        fastpath: ("scan_envelope",),
    }
    for module, names in counted_names.items():
        for name in names:
            real = getattr(module, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
    execute_cell(cell)
    assert calls["encode_report_wire"] > 0 and calls["encode_order_wire"] > 0
    assert calls["parse_xml"] == calls["serialize_xml"] == calls["scan_envelope"] == 0
