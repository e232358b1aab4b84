"""Tests for the structured trace."""

import pytest

from repro.sim.trace import Trace, TraceRecord
from repro.types import Severity


def test_emit_uses_clock_time(kernel):
    kernel.call_after(3.0, kernel.trace.emit, "src", "thing")
    kernel.run()
    assert kernel.trace.records[0].time == 3.0


def test_emit_without_clock_requires_time():
    trace = Trace()
    with pytest.raises(ValueError):
        trace.emit("src", "kind")
    record = trace.emit("src", "kind", time=1.0)
    assert record.time == 1.0


def test_filter_by_kind_and_source(kernel):
    trace = kernel.trace
    trace.emit("a", "x", value=1)
    trace.emit("b", "x", value=2)
    trace.emit("a", "y", value=3)
    assert [r.data["value"] for r in trace.filter(kind="x")] == [1, 2]
    assert [r.data["value"] for r in trace.filter(source="a")] == [1, 3]
    assert [r.data["value"] for r in trace.filter(kind="x", source="b")] == [2]


def test_filter_by_payload(kernel):
    trace = kernel.trace
    trace.emit("s", "ready", name="fedr")
    trace.emit("s", "ready", name="pbcom")
    matches = trace.filter(kind="ready", name="fedr")
    assert len(matches) == 1
    assert matches[0].data["name"] == "fedr"


def test_filter_by_time_window(kernel):
    trace = kernel.trace
    for t in (1.0, 2.0, 3.0):
        trace.emit("s", "tick", time=t)
    assert len(trace.filter(since=2.0)) == 2
    assert len(trace.filter(until=2.0)) == 2
    assert len(trace.filter(since=1.5, until=2.5)) == 1


def test_first_and_last(kernel):
    trace = kernel.trace
    trace.emit("s", "evt", n=1)
    trace.emit("s", "evt", n=2)
    trace.emit("s", "other")
    assert trace.first("evt").data["n"] == 1
    assert trace.last("evt").data["n"] == 2
    assert trace.first("missing") is None
    assert trace.last("missing") is None


def test_subscriber_sees_records_live(kernel):
    seen = []
    kernel.trace.subscribe(seen.append)
    kernel.trace.emit("s", "evt")
    assert len(seen) == 1
    assert isinstance(seen[0], TraceRecord)


def test_capacity_ring_buffer(kernel):
    trace = Trace(clock=kernel.clock, capacity=3)
    for n in range(10):
        trace.emit("s", "evt", n=n)
    assert len(trace) == 3
    assert [r.data["n"] for r in trace.records] == [7, 8, 9]
    assert trace.dropped == 7


def test_capacity_still_notifies_subscribers(kernel):
    trace = Trace(clock=kernel.clock, capacity=1)
    seen = []
    trace.subscribe(seen.append)
    for n in range(5):
        trace.emit("s", "evt", n=n)
    assert len(seen) == 5  # subscribers see everything, buffer keeps tail


def test_disabled_trace_retains_nothing(kernel):
    trace = kernel.trace
    trace.emit("s", "kept")
    trace.enabled = False
    assert trace.emit("s", "skipped") is None
    assert [r.kind for r in trace.records] == ["kept"]
    assert trace.dropped == 0  # skipped-while-disabled is not "dropped"
    trace.enabled = True
    trace.emit("s", "kept-again")
    assert [r.kind for r in trace.records] == ["kept", "kept-again"]


def test_subscriber_delivery_follows_enabled_flag(kernel):
    """Disabling the trace skips subscribers too, not just the ring."""
    trace = kernel.trace
    seen = []
    trace.subscribe(seen.append)
    trace.emit("s", "evt", n=1)  # enabled: delivered
    assert [r.data["n"] for r in seen] == [1]
    trace.enabled = False
    assert trace.emit("s", "evt", n=2) is None  # disabled: skipped entirely
    assert [r.data["n"] for r in seen] == [1]
    assert len(trace.records) == 1  # ring skipped as well
    trace.enabled = True
    trace.emit("s", "evt", n=3)  # re-enabled: delivered again
    assert [r.data["n"] for r in seen] == [1, 3]


def test_sinks_receive_records_even_while_disabled(kernel):
    """Sinks observe the full stream regardless of retention state."""
    from repro.obs.sinks import CallbackSink

    trace = kernel.trace
    seen = []
    trace.add_sink(CallbackSink(seen.append))
    trace.emit("s", "evt", n=1)
    trace.enabled = False
    record = trace.emit("s", "evt", n=2)
    assert record is not None  # sink delivery builds the record
    assert [r.data["n"] for r in seen] == [1, 2]
    assert len(trace.records) == 1  # ring still skipped while disabled


def test_remove_sink_stops_delivery(kernel):
    from repro.obs.sinks import CallbackSink

    trace = kernel.trace
    seen = []
    sink = trace.add_sink(CallbackSink(seen.append))
    trace.emit("s", "evt", n=1)
    trace.remove_sink(sink)
    trace.emit("s", "evt", n=2)
    assert [r.data["n"] for r in seen] == [1]
    assert trace.sinks == []


# ----------------------------------------------------------------------
# declared interest: a disabled trace builds a record only for a sink that
# asked for its kind
# ----------------------------------------------------------------------


def test_disabled_trace_builds_no_record_for_a_kind_nobody_declared(kernel, built):
    from repro.obs import events as ev
    from repro.obs.spans import EpisodeTracker

    trace = kernel.trace
    trace.enabled = False
    tracker = trace.add_sink(EpisodeTracker())
    assert ev.PROCESS_READY in tracker.kinds and ev.BUS_CONNECTED not in tracker.kinds
    assert trace.emit("fedr", ev.BUS_CONNECTED) is None
    assert trace.emit("hw.radio", "tuned", hz=1.0, by="pbcom") is None
    assert built == []
    record = trace.emit("procmgr", ev.PROCESS_READY, name="fedr")
    assert record is not None and built == [record]
    assert len(trace.records) == 0  # disabled: the ring keeps nothing


def test_a_sink_that_reads_everything_restores_full_delivery(kernel, built):
    from repro.obs import events as ev
    from repro.obs.sinks import CallbackSink
    from repro.obs.spans import EpisodeTracker

    trace = kernel.trace
    trace.enabled = False
    trace.add_sink(EpisodeTracker())
    seen = []
    everything = trace.add_sink(CallbackSink(seen.append))
    assert everything.kinds is None
    trace.emit("fedr", ev.BUS_CONNECTED)
    trace.emit("procmgr", ev.PROCESS_READY, name="fedr")
    assert [r.kind for r in seen] == [ev.BUS_CONNECTED, ev.PROCESS_READY]
    assert len(built) == 2
    trace.remove_sink(everything)  # narrows to the tracker's kinds again
    assert trace.emit("fedr", ev.BUS_CONNECTED) is None
    assert trace.emit("procmgr", ev.PROCESS_READY, name="fedr") is not None
    assert len(seen) == 2 and len(built) == 3
    for sink in trace.sinks:
        trace.remove_sink(sink)  # no sinks: the empty set, nothing is built
    assert trace.emit("procmgr", ev.PROCESS_READY, name="fedr") is None
    assert len(built) == 3


def test_kinds_is_a_promise_not_a_filter(kernel):
    """A record that gets built goes to every sink: an enabled trace (or a
    read-everything neighbour) hands a declared-kinds sink the other kinds
    too, so its ``accept`` must tolerate them."""
    from repro.obs.sinks import CallbackSink

    class Narrow(CallbackSink):
        kinds = frozenset({"wanted"})

    trace = kernel.trace
    subscribed, narrow = [], []
    trace.subscribe(subscribed.append)
    trace.add_sink(Narrow(narrow.append))
    trace.emit("s", "wanted")
    trace.emit("s", "unwanted")
    assert [r.kind for r in narrow] == ["wanted", "unwanted"]
    assert [r.kind for r in subscribed] == ["wanted", "unwanted"]
    assert [r.kind for r in trace.records] == ["wanted", "unwanted"]
    trace.enabled = False
    assert trace.emit("s", "unwanted") is None
    assert trace.emit("s", "wanted") is not None
    assert len(narrow) == 3 and len(subscribed) == 2


def test_validation_runs_before_the_interest_filter(kernel):
    """``REPRO_OBS_VALIDATE=1`` checks every emit site, listened to or not."""
    from repro.obs import events as ev
    from repro.obs.spans import EpisodeTracker

    trace = kernel.trace
    trace.enabled = False
    trace.add_sink(EpisodeTracker())
    assert trace.emit("fedr", ev.PBCOM_CONNECTED, bogus=1) is None  # unchecked
    before = ev.validation_enabled()
    ev.set_validation(True)
    try:
        with pytest.raises(ev.ObsValidationError):
            trace.emit("fedr", ev.PBCOM_CONNECTED, bogus=1)
        with pytest.raises(ev.ObsValidationError):
            trace.emit("fedr", "no_such_kind")
        assert trace.emit("fedr", ev.PBCOM_CONNECTED) is None  # valid, unheard
    finally:
        ev.set_validation(before)


def test_forwarders_validate_kinds_nobody_reads(kernel, manager, built):
    """``Behavior.trace`` and ``RecoveryEngine._emit`` ask ``Trace.wants``
    before re-packing their keywords, and validation is part of the
    answer: an unread kind with a missing required key still raises."""
    from repro.components.base import Behavior
    from repro.core.oracle import PerfectOracle
    from repro.core.policy import RestartPolicy
    from repro.core.recovery_engine import RecoveryEngine
    from repro.core.tree import RestartTree, cell
    from repro.obs import events as ev
    from repro.obs.sinks import PhaseSink

    from tests.conftest import spawn_simple

    behavior = Behavior(spawn_simple(manager, "a"))
    engine = RecoveryEngine(
        kernel, manager, RestartPolicy(RestartTree(cell("R_a", ["a"])), PerfectOracle(manager)),
        name="engine", observation_window=1.0, restart_timeout=1.0,
    )
    trace = kernel.trace
    trace.enabled = False
    trace.add_sink(PhaseSink())
    unread = (ev.REPLAY_WINDOW, ev.DECISION_IGNORE)
    assert not any(trace.wants(kind) for kind in unread)
    behavior.trace(ev.REPLAY_WINDOW, component="a")  # unchecked and unbuilt
    engine._emit(ev.DECISION_IGNORE, reason="duplicate")
    before = ev.validation_enabled()
    ev.set_validation(True)
    try:
        assert all(trace.wants(kind) for kind in unread)
        with pytest.raises(ev.ObsValidationError, match="messages"):
            behavior.trace(ev.REPLAY_WINDOW, component="a")
        with pytest.raises(ev.ObsValidationError, match="component"):
            engine._emit(ev.DECISION_IGNORE, reason="duplicate")
        behavior.trace(ev.REPLAY_WINDOW, component="a", messages=0)  # valid, unheard
    finally:
        ev.set_validation(before)
    assert built == []


def test_record_is_an_immutable_five_field_tuple():
    import copy
    import io
    import pickle

    from repro.obs.sinks import JsonlSink

    record = TraceRecord(
        time=12.5, source="proc.fedr", kind="process_failed", severity=Severity.WARNING,
        data={"name": "fedr", "signal": "SIGKILL", "was_starting": False,
              "cure_set": ("fedr", "pbcom")},
    )
    assert TraceRecord._fields == ("time", "source", "kind", "severity", "data")
    with pytest.raises(AttributeError):
        record.time = 13.0
    assert copy.deepcopy(record) is record
    assert pickle.loads(pickle.dumps(record)) == record
    # Both renderings, byte for byte as the frozen-dataclass record gave them.
    assert record.format() == (
        "[   12.500000] warning proc.fedr          process_failed "
        "cure_set=('fedr', 'pbcom') name='fedr' signal='SIGKILL' was_starting=False"
    )
    out = io.StringIO()
    JsonlSink(out).accept(record)
    assert out.getvalue() == (
        '{"t": 12.5, "source": "proc.fedr", "kind": "process_failed", '
        '"severity": "warning", "data": {"name": "fedr", "signal": "SIGKILL", '
        '"was_starting": false, "cure_set": ["fedr", "pbcom"]}}\n'
    )
    bare = TraceRecord(time=3.0, source="s", kind="k")
    assert (bare.severity, bare.data) == (Severity.INFO, {})
    assert bare.format() == "[    3.000000] info    s                  k"


def test_format_renders_fields(kernel):
    record = kernel.trace.emit("comp", "went_bad", severity=Severity.ERROR, code=7)
    line = record.format()
    assert "comp" in line
    assert "went_bad" in line
    assert "code=7" in line
    assert "error" in line


def test_dump_limits_lines(kernel):
    for n in range(5):
        kernel.trace.emit("s", "evt", n=n)
    dump = kernel.trace.dump(limit=2)
    assert dump.count("\n") == 1
