"""Tests for station assembly and end-to-end recovery wiring."""

import pytest

from repro.core.oracle import LearningOracle
from repro.errors import ExperimentError
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_i, tree_ii, tree_iii, tree_v


def test_boot_brings_everything_up():
    station = MercuryStation(tree=tree_v(), seed=1)
    station.boot()
    assert station.all_station_running()
    assert station.manager.get("fd").is_running
    assert station.manager.get("rec").is_running


def test_component_set_follows_tree_generation():
    assert "fedrcom" in MercuryStation(tree=tree_i(), seed=1).manager.names
    split = MercuryStation(tree=tree_v(), seed=1)
    assert "fedr" in split.manager.names and "pbcom" in split.manager.names
    assert "fedrcom" not in split.manager.names


def test_tree_component_mismatch_rejected():
    from repro.core.tree import RestartTree, cell

    wrong = RestartTree(cell("root", ["nonsense"]))
    with pytest.raises(ExperimentError):
        MercuryStation(tree=wrong, seed=1)


def test_unknown_oracle_rejected():
    with pytest.raises(ExperimentError):
        MercuryStation(tree=tree_v(), seed=1, oracle="psychic")


def test_unknown_supervisor_rejected():
    for kind in ("none", "none-of-the-above"):
        with pytest.raises(ExperimentError, match="unknown supervisor kind"):
            MercuryStation(tree=tree_v(), seed=1, supervisor=kind)


def test_oracle_instance_accepted():
    oracle = LearningOracle()
    station = MercuryStation(tree=tree_v(), seed=1, oracle=oracle)
    assert station.oracle is oracle


def test_abstract_supervisor_recovery():
    station = MercuryStation(tree=tree_v(), seed=2, supervisor="abstract")
    station.manager.start_all(station.station_components)
    station.kernel.run(until=60.0)
    failure = station.injector.inject_simple("rtu")
    recovery = station.run_until_recovered(failure)
    assert 5.0 < recovery < 7.0


def test_full_supervisor_recovery_matches_paper_band():
    station = MercuryStation(tree=tree_v(), seed=3)
    station.boot()
    failure = station.injector.inject_simple("rtu")
    recovery = station.run_until_recovered(failure)
    assert recovery == pytest.approx(5.59, abs=0.7)


def test_hardware_reflects_restart():
    station = MercuryStation(tree=tree_v(), seed=4)
    station.boot()
    assert station.hardware.serial.holder == "pbcom"
    failure = station.injector.inject_simple("pbcom")
    station.run_until_recovered(failure)
    assert station.hardware.serial.holder == "pbcom"
    assert station.hardware.serial.opens >= 2  # reacquired on restart


def test_tracking_traffic_flows():
    station = MercuryStation(tree=tree_v(), seed=5)
    station.boot()
    station.run_for(30.0)
    assert station.hardware.antenna.point_count > 5
    assert station.hardware.radio.tune_count >= 1


def test_unsplit_station_radio_path():
    station = MercuryStation(tree=tree_ii(), seed=6)
    station.boot()
    station.run_for(30.0)
    assert station.hardware.radio.tune_count >= 1
    behavior = station.manager.get("fedrcom").behavior
    assert behavior.commands_applied >= 1


def test_split_station_radio_path_via_pbcom():
    station = MercuryStation(tree=tree_v(), seed=7)
    station.boot()
    station.run_for(30.0)
    fedr = station.manager.get("fedr").behavior
    pbcom = station.manager.get("pbcom").behavior
    assert fedr.pbcom_connected
    assert fedr.translated >= 1
    assert pbcom.commands_applied >= 1


def test_fedr_reconnects_after_pbcom_restart():
    station = MercuryStation(tree=tree_v(), seed=8)
    station.boot()
    failure = station.injector.inject_simple("pbcom")
    station.run_until_recovered(failure)
    station.run_for(5.0)
    assert station.manager.get("fedr").behavior.pbcom_connected


def test_run_until_quiescent_drains_cascades():
    station = MercuryStation(tree=tree_iii(), seed=9)
    station.boot()
    station.injector.inject_simple("ses")  # will induce a str failure
    station.run_until_quiescent()
    assert station.all_station_running()
    assert not station.injector.active_failures


def test_determinism_same_seed_same_recovery():
    def run(seed):
        station = MercuryStation(tree=tree_v(), seed=seed)
        station.boot()
        failure = station.injector.inject_simple("ses")
        return station.run_until_recovered(failure)

    assert run(42) == run(42)
    assert run(42) != run(43)
