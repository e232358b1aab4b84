"""Parked dials against the polling loops they replaced, on whole stations.

A dial refused because nothing is bound leaves a ticket with the
``Network``; ``listen`` redeems it on the loop's own retry grid.  The
reference (``REFERENCES["polling-dials"]`` in ``tests/differential.py``)
re-arms a timer after every refusal.  Connect instants are the same either way
(DESIGN.md §10, "Dialling: park, don't poll"), so the JSONL trace and the
result payload must be byte-identical, and ``Kernel.events_executed`` may
differ only by the redial events the reference fired and the product did
not: its refused polls, plus a dead incarnation's last look at ``_alive``.
Every chaos scenario runs in ``tests/integration/test_differential_matrix.py``.
"""

import pytest

from repro.mercury.config import PAPER_CONFIG
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_ii, tree_iv, tree_v
from repro.workload.generator import WorkloadSpec
from repro.workload.plane import WorkloadPlane
from tests.differential import CHAOS, Case, Run, compare


@pytest.mark.parametrize(
    "scenario", ["cascade", "partition", "lossy", "zombie-fleet", "store-outage"]
)
def test_chaos_scenario_agrees_with_polling_dials(scenario):
    compare("polling-dials", CHAOS[scenario])


def test_mbus_killed_under_traffic_agrees_with_polling_dials():
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
        assert mttr > 0.0 and effects.requests_failed > 0
        return Run(station.kernel, (mttr, effects.to_payload()))

    compare("polling-dials", Case("mbus-killed-under-traffic", bus_outage))


def test_fd_killed_mid_outage_agrees_with_polling_dials():
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
        assert all(mttr > 0.0 for mttr in mttrs)
        return Run(station.kernel, mttrs)

    compare("polling-dials", Case("fd-killed-mid-outage", killed_mid_outage))


def test_rec_killed_agrees_with_polling_dials():
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
        assert mttr > 0.0
        return Run(station.kernel, mttr)

    compare("polling-dials", Case("rec-killed", rec_restart))


def test_fedr_waits_for_pbcom_without_a_kernel_event():
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
        assert mttr > 20.0
        return Run(station.kernel, mttr)

    compare("polling-dials", Case("tree-iv-joint-restart", joint_restart))
