"""Failure detection.

Two detectors share the same declaration semantics (a component is failed
when it misses application-level liveness pings):

* :class:`~repro.detection.detector.FailureDetector` — the full-fidelity FD
  of paper §2.2: XML pings over the bus with a 1 s period, bus-failure
  attribution, restart suppression driven by REC's restart orders, a
  dedicated FD↔REC control channel, and the FD half of the FD/REC mutual
  recovery special case.

* :class:`~repro.detection.abstract.AbstractSupervisor` — a collapsed
  FD+REC with *sampled* detection latency and direct policy invocation, the
  front end of §8's steady-state availability cell and nothing else, where
  simulating every ping would dominate run time.  It has no crash-only
  lifecycle of its own.  Its detection-latency distribution matches the
  full FD's (uniform ping phase + reply timeout), which the test suite
  checks.
"""

from repro.detection.abstract import AbstractSupervisor
from repro.detection.detector import FailureDetector

__all__ = ["AbstractSupervisor", "FailureDetector"]
