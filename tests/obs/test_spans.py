"""Tests for recovery-episode spans, including the awkward timelines:

* overlapping episodes on the same component;
* restart-while-restarting (insufficient restart, re-manifestation,
  escalated second restart inside one episode);
* FD/REC mutual-restart watchdog moves.
"""

import pytest

from repro.obs import events as ev
from repro.obs.spans import EpisodeTracker, episodes_from_trace
from repro.sim.trace import Trace, TraceRecord


def feed(tracker, *events):
    """Feed (time, kind, data) tuples to a tracker as records."""
    for time, kind, data in events:
        tracker.accept(TraceRecord(time=time, source="test", kind=kind, data=data))


def injected(t, component, failure_id, cure_set=None):
    return (t, ev.FAILURE_INJECTED, {
        "component": component,
        "failure_id": failure_id,
        "cure_set": list(cure_set or [component]),
        "failure_kind": "crash",
    })


def detected(t, component):
    return (t, ev.DETECTION, {"component": component})


def ordered(t, cell, components, trigger=None):
    return (t, ev.RESTART_ORDERED, {
        "cell": cell, "components": list(components), "trigger": trigger,
    })


def ready(t, name):
    return (t, ev.PROCESS_READY, {"name": name})


def cured(t, component, failure_id):
    return (t, ev.FAILURE_CURED, {"component": component, "failure_id": failure_id})


def completed(t, components, cell=None):
    return (t, ev.RESTART_COMPLETE, {"components": list(components), "cell": cell})


# ----------------------------------------------------------------------
# the straightforward episode
# ----------------------------------------------------------------------


def test_simple_episode_phases():
    tracker = EpisodeTracker()
    feed(
        tracker,
        injected(100.0, "rtu", 1),
        detected(101.0, "rtu"),
        ordered(101.5, "R_rtu", ["rtu"], trigger="rtu"),
        cured(106.0, "rtu", 1),
        ready(106.0, "rtu"),
        completed(106.0, ["rtu"], cell="R_rtu"),
    )
    (episode,) = tracker.episodes
    assert episode.kind == "failure"
    assert episode.detection_latency == pytest.approx(1.0)
    assert episode.decision_latency == pytest.approx(0.5)
    assert episode.restart_duration == pytest.approx(4.5)
    assert episode.total_recovery == pytest.approx(6.0)
    assert episode.cell == "R_rtu"
    assert episode.is_complete
    assert not tracker.open_episodes()


def test_phases_sum_to_total():
    tracker = EpisodeTracker()
    feed(
        tracker,
        injected(0.0, "ses", 7),
        detected(2.25, "ses"),
        ordered(2.5, "R_ses", ["ses"], trigger="ses"),
        cured(9.0, "ses", 7),
        completed(9.0, ["ses"]),
    )
    (episode,) = tracker.episodes
    total = (
        episode.detection_latency
        + episode.decision_latency
        + episode.restart_duration
    )
    assert total == pytest.approx(episode.total_recovery)


def test_flush_finalizes_cured_but_unconfirmed():
    tracker = EpisodeTracker()
    feed(
        tracker,
        injected(0.0, "rtu", 1),
        detected(1.0, "rtu"),
        ordered(1.5, "R_rtu", ["rtu"], trigger="rtu"),
        cured(6.0, "rtu", 1),
        # run ends before restart_complete is emitted
    )
    assert tracker.episodes == []
    tracker.flush()
    (episode,) = tracker.episodes
    assert episode.total_recovery == pytest.approx(6.0)


def test_episode_closed_finalizes_and_annotates():
    tracker = EpisodeTracker()
    feed(
        tracker,
        injected(0.0, "rtu", 1),
        detected(1.0, "rtu"),
        ordered(1.5, "R_rtu", ["rtu"], trigger="rtu"),
        cured(6.0, "rtu", 1),
        (36.0, ev.EPISODE_CLOSED, {"component": "rtu"}),
    )
    (episode,) = tracker.episodes
    assert episode.closed_at == 36.0
    assert episode.total_recovery == pytest.approx(6.0)


def test_escalation_closes_episode_as_gave_up():
    tracker = EpisodeTracker()
    feed(
        tracker,
        injected(0.0, "ses", 3),
        detected(1.0, "ses"),
        (2.0, ev.OPERATOR_ESCALATION, {"component": "ses", "reason": "retries"}),
    )
    (episode,) = tracker.episodes
    assert episode.gave_up
    assert not episode.is_complete
    assert episode.total_recovery is None


# ----------------------------------------------------------------------
# satellite edge case: overlapping episodes on one component
# ----------------------------------------------------------------------


def test_overlapping_episodes_same_component():
    """A second failure lands while the first is mid-recovery.

    Episodes are keyed by failure id, so the second injection must not
    steal the first's detection or restart events.
    """
    tracker = EpisodeTracker()
    feed(
        tracker,
        injected(100.0, "rtu", 1),
        detected(101.0, "rtu"),
        ordered(101.5, "R_rtu", ["rtu"], trigger="rtu"),
        injected(103.0, "rtu", 2),  # overlaps: first not yet cured
        cured(106.0, "rtu", 1),
        completed(106.0, ["rtu"], cell="R_rtu"),
        detected(107.0, "rtu"),
        ordered(107.5, "R_rtu", ["rtu"], trigger="rtu"),
        cured(112.0, "rtu", 2),
        completed(112.0, ["rtu"], cell="R_rtu"),
    )
    tracker.flush()
    first, second = tracker.episodes
    assert (first.failure_id, second.failure_id) == (1, 2)
    assert first.total_recovery == pytest.approx(6.0)
    assert first.detected_at == 101.0
    # The second episode's detection is its own, not a redetection of #1.
    assert second.detected_at == 107.0
    assert second.total_recovery == pytest.approx(9.0)
    assert second.redetections == 0


def test_two_open_episodes_on_one_component_share_its_restart():
    """Both of a component's open episodes take its order and readiness;
    only the cured one completes, the other stays open on its own id."""
    tracker = EpisodeTracker()
    feed(
        tracker,
        injected(0.0, "rtu", 4),
        injected(0.5, "rtu", 3),  # ids need not follow injection order
        detected(1.0, "rtu"),
        ordered(1.5, "R_rtu", ["rtu"], trigger="rtu"),
        ready(6.0, "rtu"),
        cured(6.0, "rtu", 3),
        completed(6.0, ["rtu"], cell="R_rtu"),
    )
    (done,) = tracker.episodes
    (still_open,) = tracker.open_episodes()
    assert (done.failure_id, still_open.failure_id) == (3, 4)
    assert still_open.detected_at == 1.0 and done.detected_at is None
    for episode in (done, still_open):
        assert (episode.decided_at, episode.restarts, episode.ready_at) == (1.5, 1, 6.0)
        assert episode.completed_at == 6.0
    assert done.total_recovery == pytest.approx(5.5)


def test_one_batch_completes_episodes_in_injection_order():
    """A batch naming two components finishes their episodes in the order
    they were injected, not the batch's (sorted) order."""
    seen = []
    tracker = EpisodeTracker(on_complete=seen.append)
    feed(
        tracker,
        injected(0.0, "pbcom", 1, cure_set=["fedr", "pbcom"]),
        injected(0.2, "fedr", 2),
        detected(1.0, "pbcom"),
        ordered(1.5, "R_fedr_pbcom", ["fedr", "pbcom"], trigger="pbcom"),
        cured(9.0, "fedr", 2),
        cured(9.0, "pbcom", 1),
        completed(9.0, ["fedr", "pbcom"], cell="R_fedr_pbcom"),
    )
    assert [e.failure_id for e in tracker.episodes] == [1, 2]
    assert seen == tracker.episodes
    assert not tracker.open_episodes()
    assert all(e.cells == ["R_fedr_pbcom"] for e in seen)


def test_watchdog_span_beside_an_open_failure_episode():
    tracker = EpisodeTracker()
    feed(
        tracker,
        injected(0.0, "rtu", 1),
        (0.5, ev.REC_RESTART, {"target": "rec"}),
        ready(3.0, "rec"),  # ends the watchdog span only
        detected(4.0, "rtu"),
    )
    (span,) = tracker.episodes
    (episode,) = tracker.open_episodes()
    assert (span.kind, span.component, span.restart_duration) == ("watchdog", "rec", 2.5)
    assert (episode.component, episode.ready_at, episode.detected_at) == ("rtu", None, 4.0)
    feed(tracker, (5.0, ev.FD_RESTART, {"target": "fd"}))
    assert [e.component for e in tracker.open_episodes()] == ["rtu", "fd"]


def test_new_injection_finalizes_cured_predecessor():
    """A cured-but-unconfirmed episode must close before a new one opens."""
    tracker = EpisodeTracker()
    feed(
        tracker,
        injected(0.0, "rtu", 1),
        detected(1.0, "rtu"),
        ordered(1.5, "R_rtu", ["rtu"], trigger="rtu"),
        cured(6.0, "rtu", 1),
        injected(50.0, "rtu", 2),  # restart_complete for #1 never arrived
    )
    assert len(tracker.episodes) == 1
    assert tracker.episodes[0].failure_id == 1
    (open_episode,) = tracker.open_episodes()
    assert open_episode.failure_id == 2


# ----------------------------------------------------------------------
# satellite edge case: restart-while-restarting
# ----------------------------------------------------------------------


def test_restart_while_restarting_single_episode():
    """An insufficient restart completes, the failure re-manifests, and an
    escalated restart cures — all one episode, phases anchored to the
    FIRST decision so detection + decision + restart == total."""
    tracker = EpisodeTracker()
    feed(
        tracker,
        injected(0.0, "pbcom", 9, cure_set=["fedr", "pbcom"]),
        detected(1.0, "pbcom"),
        ordered(1.5, "R_pbcom", ["pbcom"], trigger="pbcom"),  # insufficient
        completed(6.0, ["pbcom"], cell="R_pbcom"),
        (6.0, ev.FAILURE_REMANIFESTED, {"component": "pbcom", "failure_id": 9}),
        detected(8.0, "pbcom"),  # re-detection, same failure
        ordered(8.5, "R_fedr_pbcom", ["fedr", "pbcom"], trigger="pbcom"),
        cured(20.0, "pbcom", 9),
        completed(20.0, ["fedr", "pbcom"], cell="R_fedr_pbcom"),
    )
    (episode,) = tracker.episodes
    assert episode.restarts == 2
    assert episode.remanifestations == 1
    assert episode.redetections == 1
    assert episode.cells == ["R_pbcom", "R_fedr_pbcom"]
    assert episode.cell == "R_fedr_pbcom"
    # Anchored to the first decision at 1.5, not the escalation at 8.5.
    assert episode.decision_latency == pytest.approx(0.5)
    assert episode.restart_duration == pytest.approx(18.5)
    assert episode.total_recovery == pytest.approx(20.0)
    assert (
        episode.detection_latency
        + episode.decision_latency
        + episode.restart_duration
    ) == pytest.approx(episode.total_recovery)


def test_insufficient_completion_does_not_end_episode():
    tracker = EpisodeTracker()
    feed(
        tracker,
        injected(0.0, "pbcom", 9, cure_set=["fedr", "pbcom"]),
        detected(1.0, "pbcom"),
        ordered(1.5, "R_pbcom", ["pbcom"], trigger="pbcom"),
        completed(6.0, ["pbcom"], cell="R_pbcom"),  # no cure yet
    )
    assert tracker.episodes == []
    (episode,) = tracker.open_episodes()
    assert not episode.is_complete
    assert episode.recovery_end is None


def test_rekicks_counted():
    tracker = EpisodeTracker()
    feed(
        tracker,
        injected(0.0, "rtu", 1),
        detected(1.0, "rtu"),
        ordered(1.5, "R_rtu", ["rtu"], trigger="rtu"),
        (3.0, ev.RESTART_REKICK, {"components": ["rtu"]}),
        cured(9.0, "rtu", 1),
        completed(9.0, ["rtu"]),
    )
    (episode,) = tracker.episodes
    assert episode.rekicks == 1


# ----------------------------------------------------------------------
# satellite edge case: FD/REC mutual restarts
# ----------------------------------------------------------------------


def test_fd_rec_mutual_restart_watchdog_spans():
    tracker = EpisodeTracker()
    feed(
        tracker,
        (10.0, ev.REC_RESTART, {"target": "rec"}),
        ready(14.0, "rec"),
        (30.0, ev.FD_RESTART, {"target": "fd"}),
        ready(33.0, "fd"),
    )
    rec_span, fd_span = tracker.episodes
    assert rec_span.kind == "watchdog"
    assert rec_span.component == "rec"
    assert rec_span.restart_duration == pytest.approx(4.0)
    # Watchdog moves have no injection: only the restart phase exists.
    assert rec_span.detection_latency is None
    assert rec_span.total_recovery is None
    assert fd_span.component == "fd"
    assert fd_span.restart_duration == pytest.approx(3.0)


def test_duplicate_watchdog_kick_tracked_once():
    tracker = EpisodeTracker()
    feed(
        tracker,
        (10.0, ev.REC_RESTART, {"target": "rec"}),
        (11.0, ev.REC_RESTART, {"target": "rec"}),  # watchdog fired again
        ready(14.0, "rec"),
    )
    (span,) = tracker.episodes
    assert span.decided_at == 10.0  # the first kick anchors the span


def test_proactive_restarts_counted_not_spanned():
    tracker = EpisodeTracker()
    feed(tracker, (5.0, ev.PROACTIVE_RESTART, {"cell": "R_rtu"}))
    assert tracker.proactive_restarts == 1
    assert tracker.episodes == []
    assert not tracker.open_episodes()


# ----------------------------------------------------------------------
# replay + live-simulation integration
# ----------------------------------------------------------------------


def test_episodes_from_trace_replays_retained_records():
    trace = Trace()
    trace.emit("faults", ev.FAILURE_INJECTED, time=0.0, component="rtu",
               failure_id=1, cure_set=["rtu"], failure_kind="crash")
    trace.emit("fd", ev.DETECTION, time=1.0, component="rtu")
    trace.emit("rec", ev.RESTART_ORDERED, time=1.5, cell="R_rtu",
               components=["rtu"], trigger="rtu")
    trace.emit("faults", ev.FAILURE_CURED, time=6.0, component="rtu",
               failure_id=1)
    tracker = episodes_from_trace(trace)
    (episode,) = tracker.episodes
    assert episode.total_recovery == pytest.approx(6.0)


def test_live_tracker_matches_replay_on_real_run():
    """Spans folded live (as a sink) equal spans replayed from the ring."""
    from repro.experiments.recovery import measure_recovery
    from repro.mercury.trees import tree_v

    live = EpisodeTracker()
    result = measure_recovery(
        tree_v(), "rtu", trials=3, seed=21, sinks=[live]
    )
    live.flush()
    totals = sorted(
        e.total_recovery for e in live.episodes if e.kind == "failure"
    )
    assert totals == pytest.approx(sorted(result.samples))
