"""Tests for the shared enums and the exception hierarchy."""

import pytest

from repro import errors
from repro.types import ProcessState, Severity, Signal


def test_process_state_terminal_classification():
    assert ProcessState.FAILED.is_terminal
    assert ProcessState.STOPPED.is_terminal
    assert not ProcessState.RUNNING.is_terminal
    assert not ProcessState.STARTING.is_terminal
    assert not ProcessState.NEW.is_terminal


def test_process_state_alive_only_when_running():
    alive = [state for state in ProcessState if state.is_alive]
    assert alive == [ProcessState.RUNNING]


def test_signal_values_match_posix_names():
    assert str(Signal.KILL) == "SIGKILL"
    assert str(Signal.TERM) == "SIGTERM"


def test_severity_str():
    assert str(Severity.WARNING) == "warning"


def test_every_library_error_derives_from_repro_error():
    exception_types = [
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, Exception)
    ]
    for exception_type in exception_types:
        assert issubclass(exception_type, errors.ReproError), exception_type


def test_invalid_transition_error_carries_context():
    error = errors.InvalidTransitionError("fedr", "running", "starting")
    assert error.process_name == "fedr"
    assert error.current_state == "running"
    assert error.requested_state == "starting"
    assert "fedr" in str(error)


def test_xml_parse_error_position_default():
    assert errors.XmlParseError("oops").position == -1
    assert errors.XmlParseError("oops", 12).position == 12


def test_catching_the_family_root():
    with pytest.raises(errors.ReproError):
        raise errors.ChannelClosedError("closed")
    with pytest.raises(errors.TransportError):
        raise errors.AddressInUseError("in use")
    with pytest.raises(errors.TreeError):
        raise errors.UnknownCellError("missing")
