"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.obs import events
from repro.procmgr.manager import ProcessManager
from repro.procmgr.process import ProcessSpec, constant_work
from repro.sim.kernel import Kernel
from repro.transport.network import Network


@pytest.fixture(autouse=True)
def validated_emits(request):
    """Every test validates every emit against the event registry
    (``events.set_validation``), whether anything listens to it or not.  A
    test opts out by name in its module's ``UNVALIDATED`` mapping (test
    name → reason): it then runs with validation off, as the product does."""
    opted_out = request.node.originalname in getattr(request.module, "UNVALIDATED", {})
    before = events.validation_enabled()
    events.set_validation(not opted_out)
    yield
    events.set_validation(before)


@pytest.fixture
def kernel() -> Kernel:
    """A fresh deterministic kernel."""
    return Kernel(seed=1234)


@pytest.fixture
def network(kernel: Kernel) -> Network:
    """A simulated network on the shared kernel."""
    return Network(kernel)


@pytest.fixture
def manager(kernel: Kernel) -> ProcessManager:
    """A process manager with mild batch contention."""
    return ProcessManager(kernel, contention_coefficient=0.05)


@pytest.fixture
def built(monkeypatch):
    """Every ``TraceRecord`` ``Trace.emit`` constructs, in order."""
    import repro.sim.trace as trace_module

    records = []
    new_record = trace_module._new_record

    def counted(cls, fields):
        record = new_record(cls, fields)
        records.append(record)
        return record

    monkeypatch.setattr(trace_module, "_new_record", counted)
    return records


def spawn_simple(manager: ProcessManager, name: str, work: float = 1.0):
    """Helper: register a bare process with constant startup work."""
    return manager.spawn(ProcessSpec(name, constant_work(work)))
