"""Strategy × failure-kind × tree comparison matrix.

The recovery-strategy registry (:mod:`repro.core.recovery_strategies`)
claims each strategy earns its keep on a different failure shape:
microreboot preserves externalized ses/str sessions that a cold restart
loses, checkpoint-replay shortcuts the expensive pbcom/fedrcom
renegotiation, and bisect localises ambiguous fail-slow failures without
an oracle hint.  This module measures those claims head-to-head: one cell
per (strategy, failure kind, tree), each cell injecting a rotating series
of faults into a strategy-enabled station and recording MTTR plus the
session/checkpoint ledger from the station's
:class:`~repro.mercury.session_store.SessionStore`.

Every cell is a pure function of its spec — stations are built from the
cell seed, injections rotate deterministically over the sorted component
list — so cells run through :func:`repro.experiments.runner.run_suite`
and are bit-identical serial vs. parallel, cacheable under the campaign
content-address.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.chaos.invariants import InvariantChecker
from repro.core.recovery_strategies import strategy_names
from repro.core.tree import RestartTree
from repro.errors import ExperimentError
from repro.experiments.metrics import RecoveryStats
from repro.mercury.config import PAPER_CONFIG, StationConfig
from repro.mercury.station import MercuryStation

#: Failure kinds the matrix sweeps: fail-stop plus both fail-slow modes.
FAILURE_KINDS: Tuple[str, ...] = ("crash", "hang", "zombie")

#: Trees where the strategy differences are most legible: III keeps the
#: paper's lone ses/str cells (resync coupling live), V adds the split
#: fedr/pbcom pair (checkpoint-replay's best case).
DEFAULT_TREES: Tuple[str, ...] = ("III", "V")

#: Zombies answer pings, so unmasking them needs the end-to-end prober;
#: these overrides match the detector-hardening experiments.
ZOMBIE_PROBE_OVERRIDES: Dict[str, object] = {
    "probe_period": 2.0,
    "probe_timeout": 0.5,
    "probe_misses_to_declare": 2,
}


@dataclass
class StrategyCellResult:
    """Outcome of one (strategy, failure kind, tree) cell."""

    strategy: str
    failure_kind: str
    tree_name: str
    trials: int
    mttr_samples: List[float] = field(default_factory=list)
    #: Session ledger totals over the whole cell (``SessionStore.counters``).
    sessions_lost: int = 0
    sessions_restored: int = 0
    checkpoints_restored: int = 0
    messages_replayed: int = 0
    violations: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def stats(self) -> RecoveryStats:
        return RecoveryStats.from_samples(self.mttr_samples)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe form for campaign caching and reports."""
        return {
            "strategy": self.strategy,
            "failure_kind": self.failure_kind,
            "tree": self.tree_name,
            "trials": self.trials,
            "mttr_samples": list(self.mttr_samples),
            "sessions_lost": self.sessions_lost,
            "sessions_restored": self.sessions_restored,
            "checkpoints_restored": self.checkpoints_restored,
            "messages_replayed": self.messages_replayed,
            "violations": list(self.violations),
        }

    @staticmethod
    def from_payload(payload: Dict[str, Any]) -> "StrategyCellResult":
        return StrategyCellResult(
            strategy=payload["strategy"],
            failure_kind=payload["failure_kind"],
            tree_name=payload["tree"],
            trials=payload["trials"],
            mttr_samples=list(payload["mttr_samples"]),
            sessions_lost=payload["sessions_lost"],
            sessions_restored=payload["sessions_restored"],
            checkpoints_restored=payload["checkpoints_restored"],
            messages_replayed=payload["messages_replayed"],
            violations=list(payload["violations"]),
        )


def run_strategy_cell(
    tree: RestartTree,
    strategy: str,
    failure_kind: str,
    trials: int = 3,
    seed: int = 0,
    config: StationConfig = PAPER_CONFIG,
    supervisor: str = "full",
    trial_timeout: float = 400.0,
    quiesce_timeout: float = 600.0,
) -> StrategyCellResult:
    """Run ``trials`` failures of one kind under one strategy on one tree.

    Targets rotate deterministically over the supervised components
    (ses/str first, mbus excluded); zombie trials manifest as joint
    failures whose cure set spans the
    target and the next component in rotation, the ambiguous shape bisect
    exists for.  The station keeps the resync coupling armed so restart's
    session-loss cascade (ses fells str and vice versa) is on display.
    """
    if strategy not in strategy_names():
        raise ExperimentError(f"unknown recovery strategy: {strategy!r}")
    if failure_kind not in FAILURE_KINDS:
        raise ExperimentError(f"unknown failure kind: {failure_kind!r}")
    if failure_kind == "zombie":
        config = config.with_overrides(**ZOMBIE_PROBE_OVERRIDES)

    station = MercuryStation(
        tree=tree,
        config=config,
        seed=seed,
        oracle="perfect",
        supervisor=supervisor,
        trace_capacity=50_000,
        strategy=strategy,
    )
    checker = InvariantChecker(tree)
    station.kernel.trace.add_sink(checker)
    station.boot()

    # ses/str lead the rotation so even short cells exercise the session
    # machinery (the axis microreboot and restart differ on); mbus is
    # excluded — a bus bounce fells everything and washes out the signal.
    targets = sorted(
        (name for name in station.station_components if name != "mbus"),
        key=lambda name: (name not in ("ses", "str"), name),
    )
    mttr_samples: List[float] = []
    for trial in range(trials):
        station.run_until_quiescent(timeout=quiesce_timeout)
        target = targets[trial % len(targets)]
        if failure_kind == "zombie":
            peer = targets[(trial + 1) % len(targets)]
            failure = station.injector.inject_joint(
                target, frozenset({target, peer}), kind="zombie"
            )
        else:
            failure = station.injector.inject_simple(target, kind=failure_kind)
        mttr = station.run_until_recovered(failure, timeout=trial_timeout)
        mttr_samples.append(round(mttr, 9))
    # Drain correlated follow-on failures (resync induction, re-manifests)
    # before reading the ledger, so counters cover complete episodes.
    station.run_until_quiescent(timeout=quiesce_timeout)
    checker.finalize(station.kernel.now)

    counters: Dict[str, int] = {}
    if station.session_store is not None:
        counters = station.session_store.counters()
    return StrategyCellResult(
        strategy=strategy,
        failure_kind=failure_kind,
        tree_name=tree.name,
        trials=trials,
        mttr_samples=mttr_samples,
        sessions_lost=counters.get("sessions_lost", 0),
        sessions_restored=counters.get("sessions_restored", 0),
        checkpoints_restored=counters.get("checkpoints_restored", 0),
        messages_replayed=counters.get("messages_replayed", 0),
        violations=checker.violation_payloads(),
    )
