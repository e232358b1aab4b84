"""Behavior-level tests for Mercury's components on a live station."""

import pytest

from repro.mercury.passes import PassAccountant
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_ii, tree_v
from repro.xmlcmd.commands import CommandMessage


@pytest.fixture
def split_station():
    station = MercuryStation(tree=tree_v(), seed=51)
    station.boot()
    station.run_for(10.0)
    return station


def test_ses_emits_solutions(split_station):
    ses = split_station.manager.get("ses").behavior
    assert ses.solutions_sent > 0


def test_ses_idles_when_no_satellite():
    station = MercuryStation(tree=tree_v(), seed=52)
    PassAccountant(station, [])  # an empty pass schedule: nothing in view
    station.boot()
    station.run_for(20.0)
    assert station.manager.get("ses").behavior.solutions_sent == 0
    assert station.hardware.antenna.point_count == 0


def test_str_points_antenna(split_station):
    strb = split_station.manager.get("str").behavior
    assert strb.track_commands > 0
    assert split_station.hardware.antenna.last_pointed_at is not None


def test_str_rejects_malformed_track(split_station):
    from repro.bus.client import BusClient

    ops = BusClient(split_station.kernel, split_station.network, "ops")
    ops.connect()
    split_station.run_for(1.0)
    ops.send(CommandMessage("ops", "str", "track", {"azimuth": "not-a-number"}))
    split_station.run_for(1.0)
    assert split_station.trace.first("bad_track_command") is not None


def test_rtu_forwards_frequency_changes(split_station):
    rtu = split_station.manager.get("rtu").behavior
    assert rtu.tune_commands > 0
    assert split_station.manager.get("fedr").behavior.translated >= 1


def test_pbcom_owns_serial_and_radio(split_station):
    assert split_station.hardware.serial.holder == "pbcom"
    assert split_station.hardware.radio.negotiated_by == "pbcom"


def test_pbcom_rejects_garbage_line(split_station):
    fedr = split_station.manager.get("fedr").behavior
    assert fedr.pbcom_connected
    fedr._pbcom.send("GIBBERISH xyz")
    split_station.run_for(1.0)
    assert split_station.trace.first("bad_radio_command") is not None


def test_pbcom_sees_fedr_disconnects(split_station):
    pbcom = split_station.manager.get("pbcom").behavior
    before = pbcom.disconnects_seen
    failure = split_station.injector.inject_simple("fedr")
    split_station.run_until_recovered(failure)
    split_station.run_for(2.0)
    assert pbcom.disconnects_seen == before + 1
    # fedr reconnected after its restart.
    assert split_station.manager.get("fedr").behavior.pbcom_connected


def test_fedr_replays_frequency_after_reconnect(split_station):
    radio = split_station.hardware.radio
    failure = split_station.injector.inject_simple("pbcom")
    split_station.run_until_recovered(failure)
    split_station.run_for(15.0)
    # After pbcom's restart dropped the negotiation, the replayed command
    # re-tunes the radio without waiting for a frequency change.
    assert radio.ready


def test_sync_handshake_messages_flow(split_station):
    failure = split_station.injector.inject_simple("ses")
    split_station.run_until_recovered(failure)
    split_station.run_until_quiescent()
    assert split_station.all_station_running()


def test_fedrcom_monolith_applies_commands():
    station = MercuryStation(tree=tree_ii(), seed=53)
    station.boot()
    station.run_for(15.0)
    fedrcom = station.manager.get("fedrcom").behavior
    assert fedrcom.commands_applied >= 1
    assert station.hardware.serial.holder == "fedrcom"
    assert station.hardware.radio.negotiated_by == "fedrcom"


def test_fedrcom_releases_hardware_on_death():
    station = MercuryStation(tree=tree_ii(), seed=54)
    station.boot()
    station.manager.fail("fedrcom")
    assert station.hardware.serial.holder is None
    assert station.hardware.radio.negotiated_by is None
