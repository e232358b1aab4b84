"""Tests for the simulated ground-station hardware."""

import pytest

from repro.errors import ComponentError
from repro.mercury.hardware import Antenna, GroundStationHardware, Radio, SerialPort


def test_serial_exclusive_acquisition(kernel):
    port = SerialPort(kernel)
    port.acquire("pbcom")
    assert port.holder == "pbcom"
    with pytest.raises(ComponentError):
        port.acquire("fedrcom")


def test_serial_reacquire_by_holder_ok(kernel):
    port = SerialPort(kernel)
    port.acquire("pbcom")
    port.acquire("pbcom")
    assert port.opens == 2


def test_serial_release_then_reacquire(kernel):
    port = SerialPort(kernel)
    port.acquire("a")
    port.release("a")
    port.acquire("b")
    assert port.holder == "b"


def test_serial_release_by_non_holder_is_noop(kernel):
    port = SerialPort(kernel)
    port.acquire("a")
    port.release("b")
    assert port.holder == "a"


def test_radio_negotiation_lifecycle(kernel):
    radio = Radio(kernel)
    assert not radio.ready
    radio.negotiate("pbcom")
    radio.tune(437.1e6, by="pbcom")
    assert radio.ready
    radio.drop_negotiation("pbcom")
    assert not radio.ready


def test_radio_drop_by_other_component_is_noop(kernel):
    radio = Radio(kernel)
    radio.negotiate("pbcom")
    radio.drop_negotiation("fedrcom")
    assert radio.negotiated_by == "pbcom"


def test_radio_rejects_bad_frequency(kernel):
    radio = Radio(kernel)
    with pytest.raises(ComponentError):
        radio.tune(0.0, by="x")


def test_radio_tune_counter(kernel):
    radio = Radio(kernel)
    for _ in range(3):
        radio.tune(437.1e6, by="x")
    assert radio.tune_count == 3
    assert radio.tuned_at == kernel.now


def test_antenna_pointing(kernel):
    antenna = Antenna(kernel)
    antenna.point(143.2, 67.9, by="str")
    assert antenna.azimuth_deg == pytest.approx(143.2)
    assert antenna.elevation_deg == pytest.approx(67.9)
    assert antenna.point_count == 1


def test_antenna_rejects_out_of_range(kernel):
    antenna = Antenna(kernel)
    with pytest.raises(ComponentError):
        antenna.point(400.0, 45.0, by="str")
    with pytest.raises(ComponentError):
        antenna.point(0.0, 95.0, by="str")


def test_hardware_bundle(kernel):
    hardware = GroundStationHardware(kernel)
    assert hardware.serial.holder is None
    assert not hardware.radio.ready
    assert hardware.antenna.point_count == 0
