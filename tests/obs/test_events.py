"""Tests for the event schema registry and validation mode."""

import ast
import os

import pytest

from repro.obs import events as ev
from repro.obs.events import (
    EventRegistry,
    ObsValidationError,
    validation_enabled,
)
from repro.sim.trace import Trace


#: Validation is on for every test (``tests/conftest.py``) but these.
UNVALIDATED = {
    "test_emit_skips_validation_by_default": "the product's default: off",
}


# ----------------------------------------------------------------------
# registry basics
# ----------------------------------------------------------------------


def test_constants_are_kind_strings():
    assert ev.FAILURE_INJECTED == "failure_injected"
    assert ev.DETECTION == "detection"
    assert ev.RESTART_ORDERED == "restart_ordered"


def test_specs_carry_layer_and_phase():
    spec = ev.REGISTRY.get(ev.FAILURE_INJECTED)
    assert spec.layer == "faults"
    assert "component" in spec.required


def test_unregistered_kind_raises():
    with pytest.raises(ObsValidationError):
        ev.REGISTRY.get("no_such_kind")
    assert not ev.REGISTRY.is_registered("no_such_kind")


def test_duplicate_declaration_rejected():
    registry = EventRegistry()
    registry.register("x", "test")
    with pytest.raises(ObsValidationError):
        registry.register("x", "test")


def test_validate_missing_required_key():
    with pytest.raises(ObsValidationError, match="missing required"):
        ev.REGISTRY.validate(ev.DETECTION, {})
    ev.REGISTRY.validate(ev.DETECTION, {"component": "rtu"})


def test_validate_rejects_undeclared_keys_when_strict():
    with pytest.raises(ObsValidationError, match="undeclared"):
        ev.REGISTRY.validate(ev.DETECTION, {"component": "rtu", "bogus": 1})


def test_validate_allows_optional_keys():
    ev.REGISTRY.validate(
        ev.RESTART_ORDERED,
        {"cell": "R_rtu", "components": ["rtu"], "trigger": "rtu"},
    )
    ev.REGISTRY.validate(ev.BAD_RADIO_COMMAND, {"error": "parse"})
    ev.REGISTRY.validate(ev.BAD_RADIO_COMMAND, {})


def test_narratives():
    assert ev.REGISTRY.narrative_for(ev.DETECTION, {"component": "ses"}) == (
        "FD detected ses"
    )
    assert ev.REGISTRY.narrative_for(ev.REC_RESTART, {}) == (
        "FD restarted unresponsive REC"
    )
    # Kinds without a declared narrative render nothing.
    assert ev.REGISTRY.narrative_for(ev.BUS_ATTACHED, {"client": "rtu"}) is None
    assert ev.REGISTRY.narrative_for("no_such_kind", {}) is None


# ----------------------------------------------------------------------
# validation mode wiring through Trace.emit
# ----------------------------------------------------------------------


def test_emit_validates_when_enabled():
    assert validation_enabled()
    trace = Trace()
    with pytest.raises(ObsValidationError):
        trace.emit("test", "no_such_kind", time=0.0)
    with pytest.raises(ObsValidationError):
        trace.emit("test", ev.DETECTION, time=0.0)  # missing component
    record = trace.emit("test", ev.DETECTION, time=0.0, component="rtu")
    assert record is not None


def test_emit_skips_validation_by_default():
    assert not validation_enabled()
    trace = Trace()
    assert trace.emit("test", "free_form_kind", time=0.0) is not None


def test_real_simulation_passes_validation():
    """Every event a real recovery run emits satisfies its declared schema."""
    from repro.experiments.recovery import measure_recovery
    from repro.mercury.trees import tree_v

    result = measure_recovery(tree_v(), "rtu", trials=2, seed=11)
    assert len(result.samples) == 2


# ----------------------------------------------------------------------
# emit-site enumeration: every kind emitted anywhere in src/ is declared
# ----------------------------------------------------------------------


def _src_root():
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _resolve_kind(node, assignments):
    """Kind strings an emit-site expression can evaluate to, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.Attribute):
        # ev.SOME_KIND — resolve against the events module.
        resolved = getattr(ev, node.attr, None)
        return {resolved} if isinstance(resolved, str) else None
    if isinstance(node, ast.IfExp):
        body = _resolve_kind(node.body, assignments)
        orelse = _resolve_kind(node.orelse, assignments)
        if body is not None and orelse is not None:
            return body | orelse
        return None
    if isinstance(node, ast.Name):
        resolved = set()
        for value in assignments.get(node.id, []):
            kinds = _resolve_kind(value, assignments)
            if kinds is None:
                return None  # a forwarding parameter, not a literal kind
            resolved |= kinds
        return resolved or None
    return None


def _emit_sites(tree):
    """(call node, kind expression) for every trace emit in one module."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr == "emit" and len(node.args) >= 2:
            yield node, node.args[1]
        elif (
            func.attr == "trace"
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and len(node.args) >= 1
        ):
            # ComponentBehavior.trace(kind, ...) helper.
            yield node, node.args[0]


def test_every_emit_site_uses_a_registered_kind():
    """Walk src/: each statically resolvable emitted kind is declared."""
    root = _src_root()
    resolved_kinds = set()
    unresolved = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "repro")):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, "r", encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            assignments = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        assignments.setdefault(target.id, []).append(node.value)
            for call, kind_expr in _emit_sites(tree):
                kinds = _resolve_kind(kind_expr, assignments)
                if kinds is None:
                    unresolved.append(f"{path}:{call.lineno}")
                    continue
                resolved_kinds |= kinds
    missing = sorted(k for k in resolved_kinds if not ev.REGISTRY.is_registered(k))
    assert not missing, f"emit sites use unregistered kinds: {missing}"
    # The refactor converted the whole codebase; expect wide coverage.
    assert len(resolved_kinds) >= 40
    # Only parameter-forwarding helpers (Trace.emit wrappers) may be
    # unresolvable; literal kind strings must never hide behind them.
    assert len(unresolved) <= 2, f"too many unresolvable emit sites: {unresolved}"
