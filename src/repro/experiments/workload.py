"""Workload campaign cells: user-visible loss per (strategy, kind, tree).

The strategy matrix (:mod:`repro.experiments.strategy_compare`) ranks
recovery strategies by MTTR and session-ledger counts; this module asks
the Candea & Fox question instead — *what did the users lose?*  One cell
per (strategy, failure kind, tree): an open-loop request workload
(:class:`~repro.workload.plane.WorkloadPlane`) runs against the station
for the whole cell while the same rotating fault series as a strategy
cell lands, and the cell's result is the :class:`UserEffects` ledger —
goodput, failed/retried/abandoned requests, session-chain loss, and
per-recovery-phase attribution — alongside the usual MTTR samples.

Two strategies with near-identical MTTR can differ sharply here: a full
restart that fells the ses/str pair via the resync coupling turns one
failure into a session-loss cascade that microreboot's externalized
sessions never see.  That separation (similar MTTR, different user loss)
is the whole point of the metric shift.

Cells are pure functions of their spec: stations boot through the
warmed-station snapshot cache and are rebased onto the cell seed before
the plane attaches, arrivals ride the ``workload.*`` RNG streams, so a
cell is bit-identical serial vs parallel and across snapshot /
template-store / fresh boot modes (held by the ``workload`` leg of
``make check-determinism``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.invariants import InvariantChecker
from repro.core.recovery_strategies import strategy_names
from repro.core.tree import RestartTree
from repro.errors import ExperimentError
from repro.experiments.metrics import RecoveryStats
from repro.experiments.snapshot import station_shape, warmed_station
from repro.experiments.strategy_compare import (
    FAILURE_KINDS,
    ZOMBIE_PROBE_OVERRIDES,
)
from repro.mercury.config import PAPER_CONFIG, StationConfig
from repro.mercury.station import MercuryStation
from repro.workload.effects import UserEffects
from repro.workload.generator import WorkloadSpec
from repro.workload.plane import WorkloadPlane

#: Trees where the user-effects split is most legible (same rationale as
#: the strategy matrix: III keeps the lone ses/str cells, V the §4.2
#: split radio pair).
DEFAULT_TREES: Tuple[str, ...] = ("III", "V")

#: Default offered load for campaign cells: high enough that every
#: recovery episode catches a statistically meaningful slice of traffic,
#: low enough that smoke cells stay fast.
DEFAULT_SESSION_RATE = 40.0


@dataclass
class WorkloadCellResult:
    """Outcome of one (strategy, failure kind, tree) workload cell."""

    strategy: str
    failure_kind: str
    tree_name: str
    failures: int
    session_rate: float
    mttr_samples: List[float] = field(default_factory=list)
    #: The user-effects ledger in payload form (JSON-safe).
    effects: Dict[str, Any] = field(default_factory=dict)
    #: Session-store ledger (strategy-enabled stations only).
    sessions_lost: int = 0
    sessions_restored: int = 0
    violations: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def stats(self) -> RecoveryStats:
        return RecoveryStats.from_samples(self.mttr_samples)

    @property
    def user_effects(self) -> UserEffects:
        return UserEffects.from_payload(self.effects)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe form for campaign caching and reports."""
        return {
            "strategy": self.strategy,
            "failure_kind": self.failure_kind,
            "tree": self.tree_name,
            "failures": self.failures,
            "session_rate": self.session_rate,
            "mttr_samples": list(self.mttr_samples),
            "effects": dict(self.effects),
            "sessions_lost": self.sessions_lost,
            "sessions_restored": self.sessions_restored,
            "violations": list(self.violations),
        }

    @staticmethod
    def from_payload(payload: Dict[str, Any]) -> "WorkloadCellResult":
        return WorkloadCellResult(
            strategy=payload["strategy"],
            failure_kind=payload["failure_kind"],
            tree_name=payload["tree"],
            failures=payload["failures"],
            session_rate=payload["session_rate"],
            mttr_samples=list(payload["mttr_samples"]),
            effects=dict(payload["effects"]),
            sessions_lost=payload["sessions_lost"],
            sessions_restored=payload["sessions_restored"],
            violations=list(payload["violations"]),
        )


def run_workload_cell(
    tree: RestartTree,
    strategy: str = "",
    failure_kind: str = "crash",
    failures: int = 3,
    seed: int = 0,
    config: StationConfig = PAPER_CONFIG,
    supervisor: str = "full",
    spec: Optional[WorkloadSpec] = None,
    warmup_s: float = 5.0,
    cooldown_s: float = 5.0,
    trial_timeout: float = 400.0,
    quiesce_timeout: float = 600.0,
    snapshot: bool = True,
) -> WorkloadCellResult:
    """Run ``failures`` faults of one kind under live user traffic.

    ``strategy=""`` runs the classic restart-only station (no session
    store) — the baseline the microreboot papers compare against.  The
    fault series matches the strategy matrix exactly: targets rotate over
    the sorted components (ses/str first, mbus excluded), zombies
    manifest as joint failures.  Traffic starts ``warmup_s`` before the
    first injection and keeps flowing through every recovery; after the
    last trial the plane drains every in-flight chain so each started
    session ends completed or abandoned.
    """
    if strategy and strategy not in strategy_names():
        raise ExperimentError(f"unknown recovery strategy: {strategy!r}")
    if failure_kind not in FAILURE_KINDS:
        raise ExperimentError(f"unknown failure kind: {failure_kind!r}")
    if failure_kind == "zombie":
        config = config.with_overrides(**ZOMBIE_PROBE_OVERRIDES)
    spec = spec or WorkloadSpec(session_rate=DEFAULT_SESSION_RATE)

    def build(boot_seed: int) -> MercuryStation:
        return MercuryStation(
            tree=tree,
            config=config,
            seed=boot_seed,
            oracle="perfect",
            supervisor=supervisor,
            trace_capacity=50_000,
            strategy=strategy or None,
        )

    shape_params: Dict[str, Any] = dict(oracle="perfect", supervisor=supervisor)
    if strategy:
        shape_params["strategy"] = strategy
    shape = station_shape("workload", tree, config, **shape_params)
    station = warmed_station(shape, build, MercuryStation.boot, seed, snapshot)

    checker = InvariantChecker(tree)
    station.kernel.trace.add_sink(checker)
    plane = WorkloadPlane(station, spec)
    plane.start()
    station.run_for(warmup_s)

    # Same rotation as the strategy matrix so the MTTR columns line up.
    targets = sorted(
        (name for name in station.station_components if name != "mbus"),
        key=lambda name: (name not in ("ses", "str"), name),
    )
    mttr_samples: List[float] = []
    for trial in range(failures):
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
    station.run_until_quiescent(timeout=quiesce_timeout)
    station.run_for(cooldown_s)
    plane.stop()
    plane.drain()
    effects = plane.finalize()
    checker.finalize(station.kernel.now)

    counters: Dict[str, int] = {}
    if station.session_store is not None:
        counters = station.session_store.counters()
    return WorkloadCellResult(
        strategy=strategy,
        failure_kind=failure_kind,
        tree_name=tree.name,
        failures=failures,
        session_rate=spec.session_rate,
        mttr_samples=mttr_samples,
        effects=effects.to_payload(),
        sessions_lost=counters.get("sessions_lost", 0),
        sessions_restored=counters.get("sessions_restored", 0),
        violations=checker.violation_payloads(),
    )


def format_workload_report(
    results: Dict[Tuple[str, str, str], WorkloadCellResult]
) -> str:
    """Fixed-width user-effects table, one row per matrix cell."""
    lines = [
        f"{'strategy':<18} {'kind':<8} {'tree':<5} {'mean MTTR':>10} "
        f"{'goodput':>8} {'ok':>7} {'retry':>6} {'fail':>6} {'aband':>6} "
        f"{'sess lost':>10} {'loss %':>7} {'viol':>5}"
    ]
    for (strategy, kind, label), cell in sorted(results.items()):
        effects = cell.user_effects
        lines.append(
            f"{strategy or '(classic)':<18} {kind:<8} {label:<5} "
            f"{cell.stats.mean:>10.3f} {effects.goodput_rps:>8.1f} "
            f"{effects.requests_ok:>7d} {effects.requests_retried:>6d} "
            f"{effects.requests_failed:>6d} {effects.requests_abandoned:>6d} "
            f"{effects.sessions_abandoned:>10d} "
            f"{100.0 * effects.session_loss_ratio:>6.2f}% "
            f"{len(cell.violations):>5d}"
        )
    return "\n".join(lines)
