"""Unit tests for the session-store fault model itself.

The integration behavior (how :class:`SessionStore` reacts to a model)
lives in ``tests/mercury/test_session_store.py``; these tests pin the
model's own contract — outage windows, the retry-ladder arithmetic,
rate-limited timeout events, the write-corruption lottery, and its
determinism under the named RNG stream.
"""

import pytest

from repro.faults.store_faults import (
    StoreError,
    StoreFaultModel,
    StoreUnavailableError,
)
from repro.obs import events as ev
from repro.obs.sinks import Sink
from repro.sim.kernel import Kernel


class _Capture(Sink):
    """Keeps the records of ``kinds``; declares them, so it hears them
    whether or not the trace retains records."""

    def __init__(self, kernel, kinds):
        self.kinds = frozenset(kinds)
        self.records = []
        kernel.trace.add_sink(self)

    def accept(self, record):
        if record.kind in self.kinds:
            self.records.append(record)


def test_healthy_model_is_silent_and_free():
    kernel = Kernel(seed=1)
    capture = _Capture(kernel, {ev.STORE_CRASHED, ev.STORE_RECOVERED})
    model = StoreFaultModel(kernel)
    assert model.available
    assert model.down_mode is None
    model.check("save", "ses")  # no outage: no raise, no event
    assert model.write_outcome() == "ok"  # zero probabilities: no RNG draw
    kernel.run(until=5.0)
    assert capture.records == []
    assert model.counters() == {
        "outages": 0, "ops_failed": 0, "writes_torn": 0, "writes_corrupted": 0,
    }


def test_crash_window_fails_fast_with_backoff_only():
    kernel = Kernel(seed=1)
    model = StoreFaultModel(kernel)
    model.crash(10.0)
    assert model.down_mode == "crash"
    with pytest.raises(StoreUnavailableError) as excinfo:
        model.check("save", "ses")
    # Fail-fast: only the ladder's backoff gaps are burned.
    assert excinfo.value.waited == pytest.approx(sum(model.retry_backoff))
    assert excinfo.value.op == "save"
    assert excinfo.value.component == "ses"
    assert isinstance(excinfo.value, StoreError)


def test_hang_window_burns_full_per_op_timeouts():
    kernel = Kernel(seed=1)
    model = StoreFaultModel(kernel)
    model.hang(10.0)
    assert model.down_mode == "hang"
    with pytest.raises(StoreUnavailableError) as excinfo:
        model.check("load", "str")
    expected = sum(model.retry_backoff) + model.op_timeout * (
        len(model.retry_backoff) + 1
    )
    assert excinfo.value.waited == pytest.approx(expected)


def test_outage_window_closes_on_schedule():
    kernel = Kernel(seed=1)
    capture = _Capture(kernel, {ev.STORE_CRASHED, ev.STORE_RECOVERED})
    model = StoreFaultModel(kernel)
    model.crash(4.0)
    kernel.run(until=3.9)
    assert not model.available
    kernel.run(until=5.0)
    assert model.available and model.down_mode is None
    model.check("save", "ses")  # healthy again: silent
    kinds = [record.kind for record in capture.records]
    assert kinds == [ev.STORE_CRASHED, ev.STORE_RECOVERED]
    assert capture.records[0].data["mode"] == "crash"


def test_overlapping_outages_extend_not_shorten():
    kernel = Kernel(seed=1)
    capture = _Capture(kernel, {ev.STORE_RECOVERED})
    model = StoreFaultModel(kernel)
    model.crash(5.0)
    kernel.run(until=2.0)
    model.hang(10.0)  # supersedes: window now ends at t=12
    kernel.run(until=6.0)
    assert not model.available and model.down_mode == "hang"
    assert capture.records == []  # the first window's end was superseded
    kernel.run(until=13.0)
    assert model.available
    assert len(capture.records) == 1
    assert model.outages == 2


def test_timeout_events_rate_limited_per_caller_per_outage():
    kernel = Kernel(seed=1)
    capture = _Capture(kernel, {ev.STORE_OP_TIMEOUT})
    model = StoreFaultModel(kernel)
    model.crash(5.0)
    for _ in range(4):
        with pytest.raises(StoreUnavailableError):
            model.check("save", "ses")
    with pytest.raises(StoreUnavailableError):
        model.check("load", "ses")  # distinct op: its own event
    assert len(capture.records) == 2
    assert model.ops_failed == 5
    # A fresh outage window re-arms the limiter.
    kernel.run(until=6.0)
    model.crash(5.0)
    with pytest.raises(StoreUnavailableError):
        model.check("save", "ses")
    assert len(capture.records) == 3


def test_write_lottery_draws_and_counts():
    kernel = Kernel(seed=1)
    model = StoreFaultModel(
        kernel, torn_write_probability=0.5, corrupt_write_probability=0.5
    )
    outcomes = {model.write_outcome() for _ in range(50)}
    assert outcomes == {"torn", "corrupt"}
    assert model.writes_torn + model.writes_corrupted == 50


def test_garble_torn_truncates_and_corrupt_flips():
    kernel = Kernel(seed=1)
    model = StoreFaultModel(kernel)
    blob = '{"cid": 7, "peer": "str"}'
    torn = model.garble(blob, "torn")
    assert len(torn) < len(blob) and blob.startswith(torn)
    corrupt = model.garble(blob, "corrupt")
    assert len(corrupt) == len(blob) and corrupt != blob
    assert model.garble("", "torn") == "\x00"


def test_same_seed_same_draws():
    def draws(seed):
        kernel = Kernel(seed=seed)
        model = StoreFaultModel(
            kernel, torn_write_probability=0.3, corrupt_write_probability=0.1
        )
        return [model.write_outcome() for _ in range(30)] + [
            model.garble("abcdefgh", "torn") for _ in range(5)
        ]

    assert draws(3) == draws(3)
    assert draws(3) != draws(4)


def test_constructor_validation():
    kernel = Kernel(seed=1)
    with pytest.raises(ValueError, match="op_timeout"):
        StoreFaultModel(kernel, op_timeout=0.0)
    with pytest.raises(ValueError, match="probabilities"):
        StoreFaultModel(
            kernel, torn_write_probability=0.7, corrupt_write_probability=0.7
        )
    model = StoreFaultModel(kernel)
    with pytest.raises(ValueError, match="duration"):
        model.crash(0.0)
