"""Tests for failure descriptors and cure-set semantics."""

import pytest

from repro.faults.failure import FailureDescriptor


def test_simple_failure_cure_set():
    failure = FailureDescriptor.simple("rtu", at=1.0)
    assert failure.manifest_component == "rtu"
    assert failure.cure_set == frozenset(["rtu"])
    assert failure.kind == "crash"


def test_joint_failure():
    failure = FailureDescriptor.joint("pbcom", frozenset(["fedr", "pbcom"]), at=2.0)
    assert failure.cure_set == frozenset(["fedr", "pbcom"])


def test_cure_set_must_contain_manifest():
    with pytest.raises(ValueError):
        FailureDescriptor("a", frozenset(["b"]), injected_at=0.0)


def test_is_cured_by_superset():
    failure = FailureDescriptor.joint("a", frozenset(["a", "b"]), at=0.0)
    assert failure.is_cured_by(frozenset(["a", "b"]))
    assert failure.is_cured_by(frozenset(["a", "b", "c"]))


def test_is_not_cured_by_subset():
    failure = FailureDescriptor.joint("a", frozenset(["a", "b"]), at=0.0)
    assert not failure.is_cured_by(frozenset(["a"]))
    assert not failure.is_cured_by(frozenset(["b"]))
    assert not failure.is_cured_by(frozenset())


def test_ids_are_unique_and_increasing():
    a = FailureDescriptor.simple("x", at=0.0)
    b = FailureDescriptor.simple("x", at=0.0)
    assert b.failure_id > a.failure_id


def test_induced_by_linkage():
    provoker = FailureDescriptor.simple("ses", at=0.0)
    induced = FailureDescriptor(
        "str", frozenset(["str"]), injected_at=1.0,
        kind="induced-resync", induced_by=provoker.failure_id,
    )
    assert induced.induced_by == provoker.failure_id


def test_str_rendering():
    failure = FailureDescriptor.joint("pbcom", frozenset(["fedr", "pbcom"]), at=0.0)
    text = str(failure)
    assert "pbcom" in text and "fedr+pbcom" in text


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown failure kind"):
        FailureDescriptor.simple("rtu", at=0.0, kind="meltdwon")


def test_fail_slow_kinds_accepted():
    assert FailureDescriptor.simple("rtu", at=0.0, kind="hang").kind == "hang"
    assert FailureDescriptor.simple("rtu", at=0.0, kind="zombie").kind == "zombie"
