"""Parked dials against the polling loops they replaced, on whole stations.

A dial refused because nothing is bound leaves a ticket with the
``Network``; ``listen`` redeems it on the loop's own retry grid.  The
reference (``polling_dial_reference`` in ``tests/conftest.py``) re-arms a
timer after every refusal.  Connect instants are the same either way
(DESIGN.md §10, "Dialling: park, don't poll"), so the JSONL trace and the
result payload must be byte-identical, and ``Kernel.events_executed`` may
differ only by the redial events the reference fired and the product did
not: its refused polls, plus a dead incarnation's last look at ``_alive``.
"""

import collections
import io
from contextlib import contextmanager

import pytest

from repro.chaos import engine as chaos_engine
from repro.mercury.config import PAPER_CONFIG
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_ii, tree_iv, tree_v
from repro.obs.sinks import JsonlSink
from repro.transport.network import Network
from repro.workload.generator import WorkloadSpec
from repro.workload.plane import WorkloadPlane


@contextmanager
def _redial_counts():
    """Count, under whichever ``Network.redial`` is installed, the kernel
    events that ran a redial callback (``fired``), those that returned at a
    guard without dialling (``idle``), and every dial's outcome."""
    counts = collections.Counter()
    redial, dial = Network.redial, Network.dial

    def counted_dial(self, client_name, address):
        endpoint = dial(self, client_name, address)
        counts["dials"] += 1
        counts["connected" if endpoint is not None else "refused"] += 1
        return endpoint

    def counted_redial(self, client_name, address, interval, callback):
        # A closure where the product demands a bound method: nothing here
        # forks a station after its first refusal.
        def fired():
            counts["fired"] += 1
            dials = counts["dials"]
            callback()
            if counts["dials"] == dials:
                counts["idle"] += 1

        redial(self, client_name, address, interval, fired)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "dial", counted_dial)
        patch.setattr(Network, "redial", counted_redial)
        yield counts


def _both(scenario, polling_dial_reference):
    """Run ``scenario(jsonl) -> (kernel, value)`` both ways; assert
    everything but the event count is equal, and the count differs by
    exactly the redial events the reference fired in addition."""
    streams = io.StringIO(), io.StringIO()
    with _redial_counts() as parked:
        kernel, value = scenario(JsonlSink(streams[0]))
    with polling_dial_reference(), _redial_counts() as polling:
        ref_kernel, ref_value = scenario(JsonlSink(streams[1]))
    assert value == ref_value
    assert kernel.now == ref_kernel.now
    assert streams[0].getvalue() == streams[1].getvalue()
    assert streams[0].getvalue()
    assert parked["connected"] == polling["connected"] > 0
    extra = polling["fired"] - parked["fired"]
    assert extra == (
        polling["refused"] - parked["refused"] + polling["idle"] - parked["idle"]
    )
    assert polling["refused"] - parked["refused"] > 0  # polls really were saved
    assert ref_kernel.events_executed - kernel.events_executed == extra
    return value


@pytest.mark.parametrize(
    "scenario", ["cascade", "partition", "lossy", "zombie-fleet", "store-outage"]
)
def test_chaos_scenario_agrees_with_polling_dials(
    scenario, polling_dial_reference, monkeypatch
):
    built = []

    class Recorded(MercuryStation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(chaos_engine, "MercuryStation", Recorded)

    def campaign(jsonl):
        result = chaos_engine.run_chaos(
            tree_v(), scenario, trials=1, seed=7, snapshot=False, sinks=[jsonl]
        )
        assert not result.violations
        return built[-1].kernel, result.to_payload()

    payload = _both(campaign, polling_dial_reference)
    assert payload["episodes"] > 0


def test_mbus_killed_under_traffic_agrees_with_polling_dials(polling_dial_reference):
    """Every component, FD and the workload's standalone ``BusClient`` lose
    the bus at once and dial a dead address until the broker is back."""

    def bus_outage(jsonl):
        station = MercuryStation(tree=tree_ii(), seed=13, trace_capacity=50_000)
        station.boot()
        station.kernel.trace.add_sink(jsonl)
        plane = WorkloadPlane(station, WorkloadSpec(session_rate=8.0))
        plane.start()
        station.run_for(2.0)
        killed = station.injector.inject_simple("mbus", kind="crash")
        mttr = station.run_until_recovered(killed, timeout=300.0)
        station.run_until_quiescent(timeout=600.0)
        station.run_for(2.0)
        plane.stop()
        plane.drain()
        effects = plane.finalize()
        assert plane.client.connected
        return station.kernel, (mttr, effects.to_payload())

    mttr, effects = _both(bus_outage, polling_dial_reference)
    assert mttr > 0.0 and effects["requests_failed"] > 0


def test_fd_killed_mid_outage_agrees_with_polling_dials(polling_dial_reference):
    """The detector dies with redials parked on the dead bus — its tick
    starts a new chain a second, so several — and the restarted one dials
    on a grid of its own, not on the dead incarnation's."""

    def killed_mid_outage(jsonl):
        station = MercuryStation(
            tree=tree_v(), config=PAPER_CONFIG, seed=21, trace_capacity=50_000
        )
        station.boot()
        station.kernel.trace.add_sink(jsonl)
        bus = station.injector.inject_simple("mbus", kind="crash")
        station.run_for(2.6)  # FD has lost the bus and ticked since
        assert not station.fd.connected
        detector = station.injector.inject_simple("fd", kind="crash")
        mttrs = (
            station.run_until_recovered(detector, timeout=300.0),
            station.run_until_recovered(bus, timeout=300.0),
        )
        station.run_until_quiescent(timeout=600.0)
        assert station.fd.connected
        return station.kernel, mttrs

    mttrs = _both(killed_mid_outage, polling_dial_reference)
    assert all(mttr > 0.0 for mttr in mttrs)


def test_rec_killed_agrees_with_polling_dials(polling_dial_reference):
    """The control channel's listener goes with REC, and FD's
    ``_connect_ctl`` loop waits for the restarted one."""

    def rec_restart(jsonl):
        station = MercuryStation(tree=tree_v(), seed=21, trace_capacity=50_000)
        station.boot()
        station.kernel.trace.add_sink(jsonl)
        killed = station.injector.inject_simple("rec", kind="crash")
        mttr = station.run_until_recovered(killed, timeout=300.0)
        station.run_until_quiescent(timeout=600.0)
        assert station.fd._ctl is not None and station.fd._ctl.open
        return station.kernel, mttr

    assert _both(rec_restart, polling_dial_reference) > 0.0


def test_fedr_waits_for_pbcom_without_a_kernel_event(polling_dial_reference):
    """The loop the month-scale runs paid for: ``fedr`` is up in seconds,
    ``pbcom`` negotiates for over twenty, and every joint restart used to
    dial the gap at 4 Hz."""

    def joint_restart(jsonl):
        station = MercuryStation(tree=tree_iv(), seed=3, trace_capacity=50_000)
        station.boot()
        station.kernel.trace.add_sink(jsonl)
        failure = station.injector.inject_joint(
            "pbcom", {"fedr", "pbcom"}, kind="joint"
        )
        mttr = station.run_until_recovered(failure, timeout=300.0)
        station.run_until_quiescent(timeout=600.0)
        return station.kernel, mttr

    assert _both(joint_restart, polling_dial_reference) > 20.0
