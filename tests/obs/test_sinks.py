"""Tests for the pluggable sinks and their mergeable aggregates."""

import io
import json
import math

import pytest

from repro.obs import events as ev
from repro.obs.sinks import (
    CallbackSink,
    JsonlSink,
    MetricsSink,
    PhaseSink,
    RingSink,
    SummaryStat,
    merge_phase_snapshots,
    read_jsonl,
)
from repro.sim.trace import Trace, TraceRecord
from repro.types import Severity


def rec(time, kind, source="test", **data):
    return TraceRecord(time=time, source=source, kind=kind, data=data)


# ----------------------------------------------------------------------
# RingSink / CallbackSink
# ----------------------------------------------------------------------


def test_ring_sink_caps_and_counts_drops():
    ring = RingSink(capacity=3)
    for i in range(5):
        ring.accept(rec(float(i), "k"))
    assert len(ring) == 3
    assert ring.dropped == 2
    assert [r.time for r in ring.records] == [2.0, 3.0, 4.0]
    ring.clear()
    assert len(ring) == 0
    assert ring.dropped == 2  # the counter survives a clear


def test_ring_sink_unbounded_by_default():
    ring = RingSink()
    assert ring.capacity is None
    for i in range(10):
        ring.accept(rec(float(i), "k"))
    assert len(ring) == 10
    assert ring.dropped == 0


def test_callback_sink_forwards():
    seen = []
    sink = CallbackSink(seen.append)
    record = rec(1.0, "k")
    sink.accept(record)
    assert seen == [record]


# ----------------------------------------------------------------------
# JsonlSink
# ----------------------------------------------------------------------


def test_jsonl_sink_round_trip(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    sink = JsonlSink(path)
    sink.accept(rec(1.5, ev.DETECTION, source="fd", component="rtu"))
    sink.accept(rec(2.5, ev.RESTART_ORDERED, source="rec",
                    cell="R_rtu", components=["rtu"]))
    sink.close()
    assert sink.written == 2
    rows = list(read_jsonl(path))
    assert rows[0] == {
        "t": 1.5,
        "source": "fd",
        "kind": "detection",
        "severity": "info",
        "data": {"component": "rtu"},
    }
    assert rows[1]["data"]["components"] == ["rtu"]


def test_jsonl_sink_stringifies_non_json_payloads(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    sink = JsonlSink(path)
    sink.accept(rec(0.0, "k", payload=frozenset(["a"])))  # not JSON-native
    sink.close()
    (row,) = read_jsonl(path)
    assert "a" in row["data"]["payload"]


def test_jsonl_sink_wraps_existing_stream():
    buffer = io.StringIO()
    sink = JsonlSink(buffer)
    sink.accept(rec(1.0, "k"))
    sink.close()  # flushes but must not close a caller-owned stream
    assert not buffer.closed
    assert json.loads(buffer.getvalue())["t"] == 1.0


# ----------------------------------------------------------------------
# SummaryStat
# ----------------------------------------------------------------------


def test_summary_stat_moments():
    stat = SummaryStat()
    for value in (1.0, 2.0, 3.0):
        stat.add(value)
    assert stat.n == 3
    assert stat.mean == 2.0
    assert stat.std == pytest.approx(math.sqrt(2.0 / 3.0))
    assert stat.minimum == 1.0
    assert stat.maximum == 3.0


def test_summary_stat_merge_is_associative():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
    serial = SummaryStat()
    for value in values:
        serial.add(value)
    left, right = SummaryStat(), SummaryStat()
    for value in values[:2]:
        left.add(value)
    for value in values[2:]:
        right.add(value)
    left.merge(right)
    assert left == serial


def test_summary_stat_dict_round_trip():
    stat = SummaryStat()
    stat.add(2.0)
    stat.add(4.0)
    rebuilt = SummaryStat.from_dict(stat.to_dict())
    assert rebuilt == stat
    empty = SummaryStat.from_dict(SummaryStat().to_dict())
    assert empty.n == 0
    assert empty.mean == 0.0


def test_merge_phase_snapshots_matches_serial():
    a, b = SummaryStat(), SummaryStat()
    for value in (1.0, 2.0):
        a.add(value)
    for value in (3.0, 4.0):
        b.add(value)
    merged = merge_phase_snapshots(
        {"rtu": {"total": a.to_dict()}},
        {"rtu": {"total": b.to_dict()}, "ses": {"total": b.to_dict()}},
    )
    total = SummaryStat.from_dict(merged["rtu"]["total"])
    assert total.n == 4
    assert total.mean == 2.5
    assert SummaryStat.from_dict(merged["ses"]["total"]).n == 2


# ----------------------------------------------------------------------
# MetricsSink
# ----------------------------------------------------------------------


def episode_records(component="rtu", failure_id=1, base=100.0):
    """A minimal full recovery episode as a record sequence."""
    return [
        rec(base, ev.FAILURE_INJECTED, source="faults", component=component,
            failure_id=failure_id, cure_set=[component], failure_kind="crash"),
        rec(base + 1.0, ev.DETECTION, source="fd", component=component),
        rec(base + 1.5, ev.RESTART_ORDERED, source="rec",
            cell=f"R_{component}", components=[component], trigger=component),
        rec(base + 6.0, ev.FAILURE_CURED, source="faults",
            component=component, failure_id=failure_id),
        rec(base + 6.0, ev.PROCESS_READY, source=f"proc.{component}",
            name=component),
        rec(base + 6.0, ev.RESTART_COMPLETE, source="rec",
            components=[component], cell=f"R_{component}"),
    ]


def test_metrics_sink_counters_and_phases():
    sink = MetricsSink()
    for record in episode_records():
        sink.accept(record)
    assert sink.count(ev.DETECTION) == 1
    assert sink.source_counters[("rec", ev.RESTART_ORDERED)] == 1
    stats = sink.phase_stats("rtu")
    assert stats["detection"].mean == 1.0
    assert stats["decision"].mean == 0.5
    assert stats["restart"].mean == 4.5
    assert stats["total"].mean == 6.0


def test_metrics_sink_snapshot_merge_matches_single_pass():
    serial = MetricsSink()
    for record in episode_records(failure_id=1, base=100.0):
        serial.accept(record)
    for record in episode_records(failure_id=2, base=300.0):
        serial.accept(record)

    worker_a, worker_b = MetricsSink(), MetricsSink()
    for record in episode_records(failure_id=1, base=100.0):
        worker_a.accept(record)
    for record in episode_records(failure_id=2, base=300.0):
        worker_b.accept(record)
    worker_a.merge(worker_b)

    assert worker_a.counters == serial.counters
    assert worker_a.phase_snapshot() == serial.phase_snapshot()
    assert worker_a.source_counters == serial.source_counters


def test_metrics_sink_without_episode_tracking():
    sink = MetricsSink(track_episodes=False)
    for record in episode_records():
        sink.accept(record)
    assert sink.tracker is None
    assert sink.count(ev.FAILURE_INJECTED) == 1
    assert sink.phase_snapshot() == {}


def test_phase_sink_is_the_metrics_sinks_phase_table():
    phases, metrics = PhaseSink(), MetricsSink()
    records = episode_records() + episode_records("ses", failure_id=2, base=300.0)
    records.insert(3, rec(103.0, ev.BUS_CONNECTED, source="rtu"))  # unread kind
    for record in records:
        phases.accept(record)
        metrics.accept(record)
    assert phases.phase_snapshot() == metrics.phase_snapshot()
    assert phases.phase_stats("ses")["total"].mean == 6.0
    assert not hasattr(phases, "counters")


def test_phase_sink_close_flushes_cured_but_unconfirmed_episodes():
    """A run can end between ``failure_cured`` and ``restart_complete``;
    closing the sink counts that episode, as the tracker's flush does."""
    phases = PhaseSink()
    for record in episode_records()[:4]:  # inject, detect, order, cure
        phases.accept(record)
    assert phases.phase_snapshot() == {}
    phases.close()
    assert phases.phase_stats("rtu")["total"].mean == 6.0
    MetricsSink(track_episodes=False).close()  # nothing to flush


def test_sinks_declare_what_they_read():
    from repro.obs.spans import EpisodeTracker

    tracker = EpisodeTracker()
    assert tracker.kinds == frozenset(tracker._dispatch)
    assert PhaseSink().kinds == tracker.kinds
    assert ev.PROCESS_READY in tracker.kinds and ev.BUS_CONNECTED not in tracker.kinds
    # Everything that consumes or counts the whole stream reads every kind.
    for sink in (RingSink(), CallbackSink(print), JsonlSink(io.StringIO()),
                 MetricsSink(), MetricsSink(track_episodes=False)):
        assert sink.kinds is None


# ----------------------------------------------------------------------
# sinks attached to a live Trace
# ----------------------------------------------------------------------


def test_metrics_sink_on_disabled_trace():
    """Availability runs disable retention; sinks must still aggregate."""
    trace = Trace()
    trace.enabled = False
    sink = trace.add_sink(MetricsSink())
    for record in episode_records():
        trace.emit(record.source, record.kind, severity=Severity.INFO,
                   time=record.time, **record.data)
    assert trace.records == []  # nothing retained
    assert sink.phase_stats("rtu")["total"].n == 1
