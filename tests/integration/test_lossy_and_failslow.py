"""Station-level tests for the fault fabric and the fail-slow taxonomy.

These exercise the full FD/REC stack: zombies that answer pings but drop
work (unmasked only by end-to-end probes), hangs that answer nothing,
partitions the adaptive detector must hold fire through, and lossy links
whose false positives the adaptive detector retracts.
"""

import pytest

from repro.errors import ExperimentError
from repro.mercury.config import PAPER_CONFIG
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_v
from repro.obs import events as ev


def make_station(seed, net_faults=False, **overrides):
    config = PAPER_CONFIG.with_overrides(**overrides) if overrides else PAPER_CONFIG
    station = MercuryStation(
        tree=tree_v(),
        config=config,
        seed=seed,
        supervisor="full",
        trace_capacity=50_000,
        net_faults=net_faults,
    )
    station.boot()
    station.run_until_quiescent()
    return station


# ----------------------------------------------------------------------
# fail-slow taxonomy: hang and zombie
# ----------------------------------------------------------------------

def test_hang_keeps_process_alive_but_silent_until_restarted():
    station = make_station(seed=201)
    failure = station.injector.inject_simple("ses", kind="hang")
    process = station.manager.get("ses")
    assert process.is_running and process.degraded_mode == "hang"
    # The injection is invisible to the process lifecycle...
    assert not station.trace.filter(kind=ev.PROCESS_FAILED)
    assert station.trace.filter(kind=ev.PROCESS_DEGRADED)
    # ...but a hang stops answering pings, so the ping path catches it.
    recovery = station.run_until_recovered(failure)
    assert recovery < 40.0
    assert station.manager.get("ses").degraded_mode is None  # restart cures
    detections = station.trace.filter(kind=ev.DETECTION)
    assert any(r.data.get("component") == "ses" for r in detections)


def test_zombie_survives_pings_and_needs_e2e_probe():
    station = make_station(seed=202, probe_period=2.0)
    failure = station.injector.inject_simple("str", kind="zombie")
    assert station.manager.get("str").degraded_mode == "zombie"
    recovery = station.run_until_recovered(failure)
    assert recovery < 60.0
    assert station.manager.get("str").degraded_mode is None
    # Only the end-to-end probe can have seen it: the declaration must be
    # attributed to the probe path, not the ping path.
    declared = [
        r for r in station.trace.filter(kind=ev.DETECTION)
        if r.data.get("component") == "str"
    ]
    assert declared and all(r.data.get("via") == "probe" for r in declared)


def test_zombie_without_probes_stays_undetected():
    """With probing disabled (the paper's plain FD), a zombie is invisible:
    it answers every ping, so no detection and no restart ever happen."""
    station = make_station(seed=203)  # probe_period = 0.0 (disabled)
    station.injector.inject_simple("rtu", kind="zombie")
    station.run_for(30.0)
    assert station.manager.get("rtu").degraded_mode == "zombie"
    declared = [
        r for r in station.trace.filter(kind=ev.DETECTION)
        if r.data.get("component") == "rtu"
    ]
    assert not declared


# ----------------------------------------------------------------------
# partitions: the adaptive detector holds fire
# ----------------------------------------------------------------------

def test_adaptive_detector_holds_fire_through_partition():
    station = make_station(seed=204, net_faults=True, timeout_policy="adaptive")
    faults = station.network.faults
    faults.partition("fd", "mbus", 8.0)
    station.run_for(10.0)
    station.run_until_quiescent(timeout=120.0)
    # Every ping in flight went silent at once; the detector must suspect
    # the network, not declare the whole station dead.
    assert station.trace.filter(kind=ev.PARTITION_SUSPECTED)
    assert not station.trace.filter(kind=ev.DETECTION_FALSE_POSITIVE)
    assert not station.trace.filter(kind=ev.RESTART_ORDERED)
    assert station.all_station_running()


def test_fixed_detector_mass_declares_through_partition():
    """The contrast case motivating partition awareness: the paper's fixed
    single-miss detector treats a partition as mass component death."""
    station = make_station(seed=204, net_faults=True, timeout_policy="fixed")
    station.network.faults.partition("fd", "mbus", 8.0)
    station.run_for(10.0)
    assert station.trace.filter(kind=ev.DETECTION_FALSE_POSITIVE)
    station.network.faults.clear()
    station.run_until_quiescent(timeout=300.0)
    assert station.all_station_running()


# ----------------------------------------------------------------------
# lossy links: retraction
# ----------------------------------------------------------------------

def test_adaptive_detector_retracts_loss_induced_declarations():
    station = make_station(seed=205, net_faults=True, timeout_policy="adaptive")
    station.network.faults.degrade(drop=0.2, spike_probability=0.2)
    station.run_for(60.0)
    retractions = station.trace.filter(kind=ev.DETECTION_RETRACTED)
    assert retractions, "60 s at 20% drop must produce at least one retraction"
    # Each retraction reached REC and purged the pending report, once the
    # one sent in the run's last instant has crossed the control channel
    # (exempt from the wildcard profile: one plain hop, at most
    # base + jitter).
    latency = station.network.latency
    station.run_for(latency.base + latency.jitter)
    assert len(station.trace.filter(kind=ev.REPORT_RETRACTED)) == len(retractions)
    station.network.faults.clear()
    station.run_until_quiescent(timeout=300.0)
    assert station.all_station_running()


# ----------------------------------------------------------------------
# the abstract supervisor's no-network-faults precondition
# ----------------------------------------------------------------------

def test_abstract_supervisor_refuses_fault_fabric():
    with pytest.raises(ExperimentError, match="abstract"):
        MercuryStation(tree=tree_v(), seed=1, supervisor="abstract",
                       net_faults=True)


def test_abstract_supervisor_fine_without_fault_fabric():
    station = MercuryStation(tree=tree_v(), seed=1, supervisor="abstract")
    station.boot()
    station.run_until_quiescent()
    assert station.all_station_running()
