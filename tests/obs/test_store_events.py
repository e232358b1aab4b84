"""Schema-registry coverage for the crash-only recovery-plane events.

The crash-only recovery plane added two families of kinds: store-layer
fault-model activity (outage open/close, op timeouts, checksum
quarantine) and recovery-layer crash-only supervision (strategy
fallback, supervisor restart, plan fencing, oracle rebuild).  These
tests pin their registration — layer, required/optional keys,
narratives — and that validation rejects malformed payloads, mirroring
the exact shapes the fault model, recoverer, and abstract supervisor
emit.
"""

import pytest

from repro.obs import events as ev
from repro.obs.events import ObsValidationError


def test_store_kinds_registered():
    for kind in (
        ev.STORE_CRASHED,
        ev.STORE_RECOVERED,
        ev.STORE_OP_TIMEOUT,
        ev.STORE_RECORD_QUARANTINED,
    ):
        assert ev.REGISTRY.is_registered(kind)
        assert ev.REGISTRY.get(kind).layer == "store"


def test_supervision_plane_kinds_registered():
    for kind in (
        ev.STRATEGY_FALLBACK,
        ev.SUPERVISOR_RESTARTED,
        ev.PLAN_FENCED,
        ev.ORACLE_REBUILT,
    ):
        assert ev.REGISTRY.is_registered(kind)
        assert ev.REGISTRY.get(kind).layer == "recovery"


def test_store_payloads_validate_as_emitted():
    """The exact payload shapes the fault model emits must validate."""
    ev.REGISTRY.validate(ev.STORE_CRASHED, {"mode": "crash", "duration": 10.0})
    ev.REGISTRY.validate(ev.STORE_RECOVERED, {})
    ev.REGISTRY.validate(
        ev.STORE_OP_TIMEOUT, {"op": "load", "component": "ses", "waited": 0.55}
    )
    ev.REGISTRY.validate(
        ev.STORE_RECORD_QUARANTINED,
        {"component": "ses", "record": "session", "recovered": True},
    )


def test_supervision_payloads_validate_as_emitted():
    ev.REGISTRY.validate(
        ev.STRATEGY_FALLBACK,
        {
            "cell": "R_ses",
            "strategy": "microreboot",
            "fallback": "restart",
            "reason": "store-unavailable",
            "waited": 0.35,
        },
    )
    ev.REGISTRY.validate(
        ev.SUPERVISOR_RESTARTED,
        {
            "supervisor": "rec",
            "generation": 2,
            "reconciled": ("ses",),
            "dropped": (),
        },
    )
    ev.REGISTRY.validate(
        ev.PLAN_FENCED, {"generation": 2, "stale_generation": 1, "cell": "R_ses"}
    )
    ev.REGISTRY.validate(ev.ORACLE_REBUILT, {"origin": "store", "entries": 4})
    ev.REGISTRY.validate(ev.ORACLE_REBUILT, {"origin": "naive"})


@pytest.mark.parametrize(
    ("kind", "payload"),
    [
        (ev.STORE_CRASHED, {"mode": "crash"}),  # missing duration
        (ev.STORE_OP_TIMEOUT, {"op": "load", "component": "ses"}),  # no waited
        (ev.STORE_RECORD_QUARANTINED, {"component": "ses"}),  # no record
        (ev.STRATEGY_FALLBACK, {"cell": "R_ses", "strategy": "microreboot"}),
        (ev.SUPERVISOR_RESTARTED, {"supervisor": "rec"}),  # no generation
        (ev.PLAN_FENCED, {}),  # missing generation
        (ev.ORACLE_REBUILT, {"entries": 4}),  # missing origin
    ],
)
def test_store_payloads_missing_required_rejected(kind, payload):
    with pytest.raises(ObsValidationError, match="missing required"):
        ev.REGISTRY.validate(kind, payload)


def test_store_payloads_undeclared_keys_rejected():
    with pytest.raises(ObsValidationError, match="undeclared"):
        ev.REGISTRY.validate(
            ev.STORE_CRASHED, {"mode": "crash", "duration": 1.0, "vibe": "bad"}
        )


def test_session_lost_accepts_reason():
    """Honest-accounting runs tag store-degraded losses with a reason."""
    ev.REGISTRY.validate(ev.SESSION_LOST, {"component": "ses"})
    ev.REGISTRY.validate(
        ev.SESSION_LOST, {"component": "ses", "reason": "store-unavailable"}
    )


def test_store_narratives_render():
    assert "crash for 10" in ev.REGISTRY.narrative_for(
        ev.STORE_CRASHED, {"mode": "crash", "duration": 10}
    )
    assert "quarantined" in ev.REGISTRY.narrative_for(
        ev.STORE_RECORD_QUARANTINED, {"component": "ses", "record": "session"}
    )
    assert "fell back to restart" in ev.REGISTRY.narrative_for(
        ev.STRATEGY_FALLBACK,
        {"cell": "R_ses", "strategy": "microreboot", "fallback": "restart"},
    )
    assert "generation 2" in ev.REGISTRY.narrative_for(
        ev.SUPERVISOR_RESTARTED, {"supervisor": "rec", "generation": 2}
    )
    assert "fenced" in ev.REGISTRY.narrative_for(ev.PLAN_FENCED, {"generation": 2})
    assert "rebuilt from store" in ev.REGISTRY.narrative_for(
        ev.ORACLE_REBUILT, {"origin": "store"}
    )
