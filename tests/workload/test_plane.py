"""The workload plane against live stations: service, loss, accounting."""

import pytest

from repro.mercury.station import MercuryStation
from repro.mercury.trees import TREE_BUILDERS
from repro.obs import events
from repro.workload.effects import UserEffects, merge_effects_payloads
from repro.workload.plane import WorkloadPlane
from repro.workload.generator import WorkloadSpec
from repro.xmlcmd import commands
from repro.xmlcmd.document import Element


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
