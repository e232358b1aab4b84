"""Deterministic chaos campaigns: adversarial schedules + invariant checks.

The paper's evaluation kills one component at a time; real stations fail
uglier — correlated cascades, faults landing *during* recovery, a flaky
supervisor pair.  This package throws those workloads at the simulated
station and checks, live off the event stream, that the recovery machinery
keeps its promises no matter what.

* :mod:`repro.chaos.scenarios` — seed-reproducible
  :class:`~repro.chaos.scenarios.Scenario` objects (the adversarial
  schedules);
* :mod:`repro.chaos.invariants` — the
  :class:`~repro.chaos.invariants.InvariantChecker` sink asserting
  per-episode safety/liveness properties;
* :mod:`repro.chaos.engine` — :func:`~repro.chaos.engine.run_chaos`, the
  trial loop gluing a scenario to a station, plus the campaign payloads the
  parallel runner caches.
"""

from repro.chaos.engine import ChaosResult, run_chaos
from repro.chaos.invariants import InvariantChecker, Violation
from repro.chaos.scenarios import SCENARIOS, Scenario, ScenarioPlan, get_scenario

__all__ = [
    "ChaosResult",
    "InvariantChecker",
    "SCENARIOS",
    "Scenario",
    "ScenarioPlan",
    "Violation",
    "get_scenario",
    "run_chaos",
]
