"""The ``UserEffects`` ledger — what users actually lost.

Downtime seconds are the supervisor's view; this ledger is the user's:

* **goodput** — requests answered within their client timeout budget;
* **retried** — answered, but only after at least one client re-send
  (the user saw a stall, not an error);
* **failed** — the client exhausted its retries and surfaced an error;
* **abandoned** — chain steps never even issued because an earlier
  request in the session failed (the session died mid-chain);
* **session loss** — sessions abandoned vs completed, the §5.2
  "work lost" quantity lifted from satellite passes to user sessions.

Every failed or retried request is attributed to the recovery phase the
station was in at that moment (``detection`` / ``decision`` /
``restart``, via the live :class:`~repro.obs.spans.EpisodeTracker`, or
``none`` when no episode was open — e.g. losses inside the detector's
blind spot before any declaration).  That attribution is what turns the
per-phase MTTR breakdown into a per-phase *user-loss* breakdown.

All counters are plain sums and :class:`~repro.obs.sinks.SummaryStat`
accumulators, so per-station ledgers merge associatively for fleet
aggregation (:func:`merge_effects_payloads`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Tuple

from repro.obs.sinks import SummaryStat

#: Attribution buckets: the three recovery phases plus "no open episode".
PHASES: Tuple[str, ...] = ("none", "detection", "decision", "restart")


def _zero_phases() -> Dict[str, int]:
    return {phase: 0 for phase in PHASES}


@dataclass
class UserEffects:
    """Mutable accounting for one workload run (one station)."""

    sessions_started: int = 0
    sessions_completed: int = 0
    #: Sessions whose chain died on a failed request.
    sessions_abandoned: int = 0
    #: Requests actually issued (first attempts; retries are re-sends).
    requests_offered: int = 0
    #: Requests answered within the retry budget (the goodput numerator).
    requests_ok: int = 0
    #: Subset of ``requests_ok`` that needed at least one retry.
    requests_retried: int = 0
    #: Requests that exhausted their retries (user-visible errors).
    requests_failed: int = 0
    #: Chain steps never issued because the session was abandoned.
    requests_abandoned: int = 0
    #: Total client re-sends (a request can contribute several).
    retries_sent: int = 0
    #: Completed-request latency (first send to accepted reply).
    latency: SummaryStat = field(default_factory=SummaryStat)
    #: Failed requests by the recovery phase open at failure time.
    failed_by_phase: Dict[str, int] = field(default_factory=_zero_phases)
    #: Retries by the recovery phase open when the timeout fired.
    retried_by_phase: Dict[str, int] = field(default_factory=_zero_phases)
    #: Measured window (start of arrivals to end of drain), set by
    #: :meth:`finalize`; goodput and offered rates divide by this.
    elapsed_s: float = 0.0

    # -- recording ------------------------------------------------------

    def record_ok(self, latency: float, retried: bool) -> None:
        """A request completed (within the retry budget)."""
        self.requests_ok += 1
        if retried:
            self.requests_retried += 1
        self.latency.add(latency)

    def record_retry(self, phase: str) -> None:
        """The client re-sent a timed-out request during ``phase``."""
        self.retries_sent += 1
        self.retried_by_phase[phase] = self.retried_by_phase.get(phase, 0) + 1

    def record_failure(self, phase: str, chain_remaining: int) -> None:
        """A request exhausted its retries; its session chain dies.

        ``chain_remaining`` steps after the failed one are never issued
        and count as abandoned work.
        """
        self.requests_failed += 1
        self.failed_by_phase[phase] = self.failed_by_phase.get(phase, 0) + 1
        self.sessions_abandoned += 1
        self.requests_abandoned += chain_remaining

    def finalize(self, elapsed_s: float) -> None:
        """Pin the measured window once arrivals stopped and drain ended."""
        self.elapsed_s = elapsed_s

    # -- derived --------------------------------------------------------

    @property
    def goodput_rps(self) -> float:
        """Requests successfully answered per simulated second."""
        return self.requests_ok / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def session_loss_ratio(self) -> float:
        """Fraction of started sessions that died mid-chain."""
        return (
            self.sessions_abandoned / self.sessions_started
            if self.sessions_started
            else 0.0
        )

    @property
    def lost_requests(self) -> int:
        """User-visible loss: errors surfaced plus chain work never done."""
        return self.requests_failed + self.requests_abandoned

    # -- exchange form --------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe form for campaign caching, reports, and merging."""
        return {
            "sessions_started": self.sessions_started,
            "sessions_completed": self.sessions_completed,
            "sessions_abandoned": self.sessions_abandoned,
            "requests_offered": self.requests_offered,
            "requests_ok": self.requests_ok,
            "requests_retried": self.requests_retried,
            "requests_failed": self.requests_failed,
            "requests_abandoned": self.requests_abandoned,
            "retries_sent": self.retries_sent,
            "latency": self.latency.to_dict(),
            "failed_by_phase": dict(self.failed_by_phase),
            "retried_by_phase": dict(self.retried_by_phase),
            "elapsed_s": round(self.elapsed_s, 9),
        }

    @staticmethod
    def from_payload(payload: Dict[str, Any]) -> "UserEffects":
        effects = UserEffects(
            sessions_started=payload["sessions_started"],
            sessions_completed=payload["sessions_completed"],
            sessions_abandoned=payload["sessions_abandoned"],
            requests_offered=payload["requests_offered"],
            requests_ok=payload["requests_ok"],
            requests_retried=payload["requests_retried"],
            requests_failed=payload["requests_failed"],
            requests_abandoned=payload["requests_abandoned"],
            retries_sent=payload["retries_sent"],
            latency=SummaryStat.from_dict(payload["latency"]),
            elapsed_s=payload["elapsed_s"],
        )
        for phase, count in payload["failed_by_phase"].items():
            effects.failed_by_phase[phase] = count
        for phase, count in payload["retried_by_phase"].items():
            effects.retried_by_phase[phase] = count
        return effects

    def merge(self, other: "UserEffects") -> None:
        """Fold another station's ledger in (associative).

        Windows are concurrent across a fleet, so rates divide by the
        longest window rather than the sum.
        """
        self.sessions_started += other.sessions_started
        self.sessions_completed += other.sessions_completed
        self.sessions_abandoned += other.sessions_abandoned
        self.requests_offered += other.requests_offered
        self.requests_ok += other.requests_ok
        self.requests_retried += other.requests_retried
        self.requests_failed += other.requests_failed
        self.requests_abandoned += other.requests_abandoned
        self.retries_sent += other.retries_sent
        self.latency.merge(other.latency)
        for phase, count in other.failed_by_phase.items():
            self.failed_by_phase[phase] = self.failed_by_phase.get(phase, 0) + count
        for phase, count in other.retried_by_phase.items():
            self.retried_by_phase[phase] = self.retried_by_phase.get(phase, 0) + count
        self.elapsed_s = max(self.elapsed_s, other.elapsed_s)


def merge_effects_payloads(payloads: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-station effects payloads into one fleet-wide ledger."""
    merged = UserEffects()
    for payload in payloads:
        merged.merge(UserEffects.from_payload(payload))
    return merged.to_payload()
