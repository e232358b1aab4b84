"""The workload plane against live stations: service, loss, accounting.

The retry ladder's deadlines ride attempt-keyed lanes with one armed kernel
event (DESIGN.md §13).  The reference (``per_request_timers_reference`` in
``tests/conftest.py``) arms one kernel timer per send, as the plane did
before: ledgers and JSONL traces must be byte-identical, and once every
deadline has passed ``Kernel.events_executed`` may differ only by *sends −
wakes* — the reference ran one timer per send (every answered first attempt,
every answered retry, every send that timed out), the plane one event per
armed wake.
"""

import collections
import copy
import io
import pickle
import types
from contextlib import contextmanager

import pytest

from repro.experiments import workload as workload_cells
from repro.experiments.snapshot import fork
from repro.mercury.station import MercuryStation
from repro.mercury.trees import TREE_BUILDERS
from repro.obs import events
from repro.obs.sinks import CallbackSink, JsonlSink
from repro.sim.kernel import Kernel
from repro.transport.network import Network
from repro.workload.effects import UserEffects, merge_effects_payloads
from repro.workload.plane import WorkloadPlane, _Session
from repro.workload.generator import WorkloadSpec
from repro.xmlcmd import commands
from repro.xmlcmd.document import Element
from tests.experiments.test_workload import _cell


def _booted(label: str, seed: int = 21) -> MercuryStation:
    station = MercuryStation(tree=TREE_BUILDERS[label](), seed=seed)
    station.boot()
    return station


@pytest.fixture(scope="module")
def healthy_run():
    """30 s of traffic against an undisturbed tree-V station."""
    events.set_validation(True)
    try:
        station = _booted("V")
        plane = WorkloadPlane(station, WorkloadSpec(session_rate=10.0))
        effects = plane.run(30.0)
    finally:
        events.set_validation(False)
    return plane, effects


def test_healthy_station_serves_everything(healthy_run):
    plane, effects = healthy_run
    assert effects.sessions_started > 100
    assert effects.sessions_completed == effects.sessions_started
    assert effects.sessions_abandoned == 0
    assert effects.requests_ok == effects.requests_offered
    assert effects.requests_failed == 0
    assert effects.requests_abandoned == 0
    assert effects.retries_sent == 0
    assert plane.in_flight == 0


def test_healthy_latency_is_sub_timeout(healthy_run):
    _, effects = healthy_run
    assert effects.latency.n == effects.requests_ok
    assert 0.0 < effects.latency.maximum < WorkloadSpec().request_timeout_s
    assert effects.goodput_rps > 0.0
    assert effects.goodput_rps <= effects.offered_rps


def test_all_three_services_answer(healthy_run):
    plane, _ = healthy_run
    # The split tree routes uplinks to fedr; ses and str serve directly.
    assert plane.targets == {
        "telemetry": "ses",
        "schedule": "str",
        "uplink": "fedr",
    }
    for name in ("ses", "str", "fedr"):
        behavior = plane.station.manager.get(name).behavior
        assert behavior.svc_requests > 0


def test_monolithic_tree_routes_uplink_to_fedrcom():
    station = _booted("I")
    plane = WorkloadPlane(station, WorkloadSpec(session_rate=10.0))
    assert plane.targets["uplink"] == "fedrcom"
    effects = plane.run(20.0)
    assert effects.requests_failed == 0
    assert station.manager.get("fedrcom").behavior.svc_requests > 0


def test_crash_during_traffic_is_user_visible():
    station = _booted("V")
    plane = WorkloadPlane(station, WorkloadSpec(session_rate=30.0))
    plane.start()
    station.run_for(5.0)
    failure = station.injector.inject_simple("ses", kind="crash")
    station.run_until_recovered(failure, timeout=120.0)
    station.run_for(5.0)
    plane.stop()
    plane.drain()
    effects = plane.finalize()
    # The outage stalls or kills telemetry requests; every loss carries a
    # real phase attribution (the blame is pinned at first stall, so the
    # "none" bucket stays empty even though final timeouts fire after the
    # episode closes).
    assert effects.retries_sent > 0
    assert effects.requests_failed > 0
    assert effects.failed_by_phase["none"] == 0
    assert sum(effects.failed_by_phase.values()) == effects.requests_failed
    assert effects.sessions_abandoned == effects.requests_failed
    # Conservation: every started session ended exactly one way.
    assert (
        effects.sessions_completed + effects.sessions_abandoned
        == effects.sessions_started
    )


def test_stop_halts_arrivals():
    station = _booted("V")
    plane = WorkloadPlane(station, WorkloadSpec(session_rate=10.0))
    plane.start()
    station.run_for(10.0)
    plane.stop()
    plane.drain()
    started = plane.effects.sessions_started
    station.run_for(20.0)
    assert plane.effects.sessions_started == started


def test_effects_payload_roundtrip(healthy_run):
    _, effects = healthy_run
    payload = effects.to_payload()
    clone = UserEffects.from_payload(payload)
    assert clone.to_payload() == payload
    assert clone.goodput_rps == pytest.approx(effects.goodput_rps)


def test_effects_merge_is_associative():
    def ledger(ok: int, failed: int, latency: float) -> UserEffects:
        effects = UserEffects()
        for _ in range(ok):
            effects.record_ok(latency=latency, retried=False)
        for _ in range(failed):
            effects.record_failure("restart", chain_remaining=1)
        effects.finalize(10.0)
        return effects

    # Power-of-two latencies keep the float sums exact, so associativity
    # holds bitwise (fleet merges are order-fixed anyway; this pins the
    # algebra, not float addition).
    a, b, c = ledger(5, 1, 0.125), ledger(3, 0, 0.25), ledger(7, 2, 0.0625)
    left = merge_effects_payloads(
        [merge_effects_payloads([a.to_payload(), b.to_payload()]), c.to_payload()]
    )
    right = merge_effects_payloads(
        [a.to_payload(), merge_effects_payloads([b.to_payload(), c.to_payload()])]
    )
    assert left == right
    merged = UserEffects.from_payload(left)
    assert merged.requests_ok == 15
    assert merged.requests_failed == 3
    assert merged.lost_requests == 3 + 3
    assert merged.elapsed_s == 10.0


def test_healthy_traffic_never_builds_an_element_tree(monkeypatch):
    """Requests, replies and pings are coded at the wire level: once the
    station is up, serving users must not run the XML parser or construct
    a single :class:`Element` (the cost PR 13 removed, twice per request)."""
    station = _booted("V")
    plane = WorkloadPlane(station, WorkloadSpec(session_rate=20.0))
    plane.start()
    station.run_for(2.0)  # attach/sync traffic settles outside the window

    calls = {"parse_xml": 0, "Element": 0}
    parse_xml, element_init = commands.parse_xml, Element.__init__

    def counting_parse(text):
        calls["parse_xml"] += 1
        return parse_xml(text)

    def counting_init(self, *args, **kwargs):
        calls["Element"] += 1
        element_init(self, *args, **kwargs)

    monkeypatch.setattr(commands, "parse_xml", counting_parse)
    monkeypatch.setattr(Element, "__init__", counting_init)
    before = plane.effects.requests_ok
    station.run_for(15.0)
    monkeypatch.undo()

    assert plane.effects.requests_ok - before >= 200
    assert plane.effects.requests_failed == 0
    assert calls == {"parse_xml": 0, "Element": 0}


# ----------------------------------------------------------------------
# deadline lanes against one kernel timer per send
# ----------------------------------------------------------------------


@contextmanager
def _wake_counts():
    """Count ``_deadline`` wakes and the heads they found due."""
    counts = collections.Counter()
    deadline, timeout = WorkloadPlane._deadline, WorkloadPlane._timeout

    def counted_deadline(self):
        counts["wakes"] += 1
        deadline(self)

    def counted_timeout(self, rid, attempt):
        counts["timeouts"] += 1
        timeout(self, rid, attempt)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WorkloadPlane, "_deadline", counted_deadline)
        patch.setattr(WorkloadPlane, "_timeout", counted_timeout)
        yield counts


def _both(scenario, per_request_timers_reference):
    """Run ``scenario(jsonl) -> (plane, value)`` both ways and on past the
    longest deadline still queued; assert everything but the event count is
    equal, and the count differs by exactly sends − wakes."""
    streams = io.StringIO(), io.StringIO()

    def settled(stream):
        plane, value = scenario(JsonlSink(stream))
        spec = plane.spec
        plane.kernel.run(
            until=plane.kernel.now
            + spec.request_timeout_s
            + spec.max_retries * spec.retry_backoff_s
        )
        return plane, value

    with _wake_counts() as lanes:
        plane, value = settled(streams[0])
    with per_request_timers_reference(), _wake_counts() as timers:
        ref_plane, ref_value = settled(streams[1])
    assert value == ref_value
    assert plane.kernel.now == ref_plane.kernel.now
    assert streams[0].getvalue() == streams[1].getvalue()
    assert streams[0].getvalue()
    effects = plane.effects
    assert effects.to_payload() == ref_plane.effects.to_payload()
    sends = effects.requests_offered + effects.retries_sent
    assert timers["wakes"] == 0 and timers["timeouts"] == sends
    assert 0 < lanes["wakes"] < sends  # timers really were saved
    assert not any(plane._lanes) and plane.in_flight == 0
    assert (
        ref_plane.kernel.events_executed - plane.kernel.events_executed
        == sends - lanes["wakes"]
    )
    return lanes, effects


def _traffic(label, spec, seed, horizon_s, kill_at=None):
    def scenario(jsonl):
        station = MercuryStation(
            tree=TREE_BUILDERS[label](), seed=seed, trace_capacity=50_000
        )
        station.boot()
        station.kernel.trace.add_sink(jsonl)
        plane = WorkloadPlane(station, spec)
        plane.start()
        if kill_at is not None:
            station.run_for(kill_at)
            failure = station.injector.inject_simple("ses", kind="crash")
            station.run_until_recovered(failure, timeout=120.0)
        station.run_for(horizon_s)
        plane.stop()
        plane.drain()
        return plane, plane.finalize().to_payload()

    return scenario


def test_healthy_traffic_agrees_with_per_request_timers(per_request_timers_reference):
    lanes, effects = _both(
        _traffic("V", WorkloadSpec(session_rate=10.0), 21, 12.0),
        per_request_timers_reference,
    )
    # Every send was an answered first attempt: no wake found anything due.
    assert effects.retries_sent == 0 and lanes["timeouts"] == 0


def test_burst_arrivals_agree_with_per_request_timers(per_request_timers_reference):
    """The ``burst`` law issues a whole burst on one float instant, so the
    deadlines of the requests an outage swallows tie exactly: one wake times
    them out in send order, and the re-sends draw the latencies they drew.
    (The period is off the ladder's grid — no burst lands on the float
    instant of a deadline, the one order DESIGN.md §13 does not promise.)"""
    spec = WorkloadSpec(arrival="burst", burst_size=30, burst_period_s=1.3)
    lanes, effects = _both(
        _traffic("V", spec, 5, 4.0, kill_at=3.2), per_request_timers_reference
    )
    assert effects.retries_sent > 0 and effects.requests_failed > 0
    assert lanes["timeouts"] > lanes["wakes"]  # ties: several heads per wake


@pytest.mark.parametrize(
    "strategy, kind",
    [("restart", "crash"), ("microreboot", "crash"), ("microreboot", "hang")],
)
def test_loss_cells_agree_with_per_request_timers(
    strategy, kind, per_request_timers_reference, monkeypatch
):
    captured = {}

    class Recorded(WorkloadPlane):
        def __init__(self, station, spec):
            super().__init__(station, spec)
            station.kernel.trace.add_sink(captured["jsonl"])
            captured["plane"] = self

    monkeypatch.setattr(workload_cells, "WorkloadPlane", Recorded)

    def cell(jsonl):
        captured["jsonl"] = jsonl
        result = _cell(strategy, failure_kind=kind)
        assert result.ok, result.violations
        return captured["plane"], result.to_payload()

    lanes, effects = _both(cell, per_request_timers_reference)
    assert effects.retries_sent > 0 and effects.requests_failed > 0
    assert lanes["timeouts"] == effects.retries_sent + effects.requests_failed


def _stalled_plane(spec=None):
    """A plane on a network nothing listens on: every send is lost, the
    client's dial parks, and the kernel holds the plane's events only."""
    kernel = Kernel(seed=3)
    station = types.SimpleNamespace(kernel=kernel, network=Network(kernel), split=True)
    plane = WorkloadPlane(station, spec)
    plane.client.connect()
    assert kernel.pending_events == 0
    return plane


def test_a_deadline_that_undercuts_the_armed_one_fires_on_time():
    """A retry's wait is longer than a first attempt's, so a request issued
    within ``retry_backoff_s`` of a re-send is owed its timeout *before* the
    event armed for the re-send — and the superseded event, when it fires,
    is the re-send's own deadline, not a second timeout for anybody."""
    plane = _stalled_plane()
    kernel = plane.kernel
    retried = []
    kernel.trace.add_sink(
        CallbackSink(
            lambda r: r.kind == events.WORKLOAD_REQUEST_RETRIED
            and retried.append((r.time, r.data["req"], r.data["attempt"]))
        )
    )
    plane._issue(_Session(0, ("telemetry",)), 0)
    kernel.run(until=2.25)
    assert retried == [(2.0, 0, 2)]
    assert plane._armed_at == 4.5 and kernel.pending_events == 1
    plane._issue(_Session(1, ("schedule",)), 0)
    assert plane._armed_at == 4.25 and kernel.pending_events == 2
    plane.drain()
    assert retried == [
        (2.0, 0, 2), (4.25, 1, 2), (4.5, 0, 3), (6.75, 1, 3),
    ]
    # Request 0 failed at 7.5, request 1 at 6.75 + 3.0.
    assert kernel.now == 9.75 and plane.in_flight == 0
    assert plane.effects.requests_failed == 2
    assert kernel.pending_events == 0 and plane._armed_at == float("inf")


def test_same_instant_deadlines_run_in_send_order_across_lanes():
    """Lane 1 and lane 2 heads on one float instant: the older send first."""
    plane = _stalled_plane(WorkloadSpec(request_timeout_s=2.0, retry_backoff_s=2.0))
    order = []
    plane.kernel.trace.add_sink(
        CallbackSink(
            lambda r: r.kind == events.WORKLOAD_REQUEST_RETRIED
            and order.append((r.time, r.data["req"]))
        )
    )
    plane._issue(_Session(0, ("telemetry",)), 0)  # re-sent at 2.0, due at 6.0
    plane.kernel.run(until=4.0)
    plane._issue(_Session(1, ("telemetry",)), 0)  # first attempt, due at 6.0
    plane._issue(_Session(2, ("telemetry",)), 0)
    plane.kernel.run(until=6.0)
    assert order == [(2.0, 0), (6.0, 0), (6.0, 1), (6.0, 2)]


def test_drain_with_only_deadlines_outstanding_runs_to_the_last_one():
    """``drain`` is ``run_until``, which gives up when the queue empties: a
    live deadline must always have an event armed for it."""
    plane = _stalled_plane()
    plane._issue(_Session(0, ("telemetry", "schedule")), 0)
    assert plane.kernel.pending_events == 1
    plane.drain()
    assert plane.in_flight == 0 and plane.kernel.now == 2.0 + 2.5 + 3.0
    effects = plane.effects
    assert (effects.retries_sent, effects.requests_failed) == (2, 1)
    assert effects.requests_abandoned == 1 and effects.sessions_abandoned == 1


def test_healthy_traffic_costs_the_hops_not_a_timer_per_request():
    """The tier-1 pin of ROADMAP item 1(a): four protocol hops, the session
    arrivals and the background pings — no dead timer per request (5.55
    events each before the lanes) and no two seconds of answered deadlines
    resident in the kernel heap (≈310 at this rate)."""
    station = _booted("V")
    plane = WorkloadPlane(station, WorkloadSpec(session_rate=50.0))
    kernel = station.kernel
    before = kernel.events_executed
    plane.start()
    resident = 0
    for _ in range(40):
        station.run_for(0.5)
        resident = max(resident, kernel.pending_events)
    plane.stop()
    plane.drain()
    effects = plane.finalize()
    assert effects.requests_ok == effects.requests_offered > 2500
    assert (kernel.events_executed - before) / effects.requests_ok <= 4.7
    assert resident <= 50


def _finish(station, plane):
    station.run_for(4.0)
    plane.stop()
    plane.drain()
    return plane.finalize().to_payload(), station.kernel.events_executed


@pytest.mark.parametrize(
    "clone",
    [fork, copy.deepcopy, lambda pair: pickle.loads(pickle.dumps(pair))],
    ids=["fork", "deepcopy", "pickle"],
)
def test_a_copied_plane_continues_to_the_same_ledger(clone):
    """Fleet shells carry station and plane across a fork and process
    boundaries mid-run: lanes, ordinals and the armed instant go along."""
    station = _booted("V")
    plane = WorkloadPlane(station, WorkloadSpec(session_rate=30.0))
    plane.start()
    station.run_for(3.0)
    station.injector.inject_simple("ses", kind="crash")
    station.run_for(3.0)
    assert any(plane._lanes[2:]) and plane._armed_at < float("inf")
    twin_station, twin_plane = clone((station, plane))
    original = _finish(station, plane)
    assert original[0]["retries_sent"] > 0
    assert _finish(twin_station, twin_plane) == original
