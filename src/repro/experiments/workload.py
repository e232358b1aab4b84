"""Fault-series campaign cells: MTTR and user loss per (strategy, kind, tree).

PAPER.md §7 calls restart "just one example of a recovery procedure";
the recovery-strategy registry (:mod:`repro.core.recovery_strategies`)
claims each strategy earns its keep on a different failure shape:
microreboot preserves externalized ses/str sessions that a cold restart
loses, checkpoint-replay shortcuts the expensive pbcom/fedrcom
renegotiation, and bisect localises ambiguous fail-slow failures without
an oracle hint.  One cell per (strategy, failure kind, tree) measures
those claims: a rotating series of faults lands on the station and the
cell records MTTR samples plus the session/checkpoint ledger of the
station's :class:`~repro.mercury.session_store.SessionStore`.

With a :class:`~repro.workload.generator.WorkloadSpec` the cell also asks
the Candea & Fox question — *what did the users lose?*  An open-loop
request workload (:class:`~repro.workload.plane.WorkloadPlane`) runs
against the station for the whole cell, and the result carries the
:class:`UserEffects` ledger — goodput, failed/retried/abandoned requests,
session-chain loss, and per-recovery-phase attribution — from the same
run as the MTTR samples.  Two strategies with near-identical MTTR can
differ sharply here: a full restart that fells the ses/str pair via the
resync coupling turns one failure into a session-loss cascade that
microreboot's externalized sessions never see.  Without a spec (a campaign
cell at ``request_rate`` 0) there is no plane and no user ledger.

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
from repro.mercury.config import PAPER_CONFIG, StationConfig
from repro.mercury.station import MercuryStation
from repro.workload.effects import UserEffects
from repro.workload.generator import WorkloadSpec
from repro.workload.plane import WorkloadPlane

#: Failure kinds a cell may inject: fail-stop plus both fail-slow modes.
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

#: Default offered load for campaign cells: high enough that every
#: recovery episode catches a statistically meaningful slice of traffic,
#: low enough that smoke cells stay fast.
DEFAULT_SESSION_RATE = 40.0


@dataclass
class WorkloadCellResult:
    """Outcome of one (strategy, failure kind, tree) fault-series cell."""

    strategy: str
    failure_kind: str
    tree_name: str
    failures: int
    session_rate: float
    mttr_samples: List[float] = field(default_factory=list)
    #: The user-effects ledger in payload form (JSON-safe); ``None`` when
    #: the cell ran without traffic.
    effects: Optional[Dict[str, Any]] = None
    #: Session-store ledger totals over the whole cell
    #: (``SessionStore.counters``; strategy-enabled stations only).
    sessions_lost: int = 0
    sessions_restored: int = 0
    checkpoints_restored: int = 0
    messages_replayed: int = 0
    violations: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def stats(self) -> RecoveryStats:
        return RecoveryStats.from_samples(self.mttr_samples)

    @property
    def user_effects(self) -> Optional[UserEffects]:
        if self.effects is None:
            return None
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
            "effects": None if self.effects is None else dict(self.effects),
            "sessions_lost": self.sessions_lost,
            "sessions_restored": self.sessions_restored,
            "checkpoints_restored": self.checkpoints_restored,
            "messages_replayed": self.messages_replayed,
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
            effects=None if payload["effects"] is None else dict(payload["effects"]),
            sessions_lost=payload["sessions_lost"],
            sessions_restored=payload["sessions_restored"],
            checkpoints_restored=payload["checkpoints_restored"],
            messages_replayed=payload["messages_replayed"],
            violations=list(payload["violations"]),
        )


def run_workload_cell(
    tree: RestartTree,
    strategy: str = "",
    failure_kind: str = "crash",
    failures: int = 3,
    seed: int = 0,
    config: StationConfig = PAPER_CONFIG,
    spec: Optional[WorkloadSpec] = None,
    warmup_s: float = 5.0,
    cooldown_s: float = 5.0,
    trial_timeout: float = 400.0,
    quiesce_timeout: float = 600.0,
    snapshot: bool = True,
) -> WorkloadCellResult:
    """Run ``failures`` faults of one kind, under user traffic when
    ``spec`` is given.

    ``strategy=""`` runs the classic restart-only station (no session
    store) — the baseline the microreboot papers compare against.
    Targets rotate deterministically over the sorted components (ses/str
    first, so even short cells exercise the session machinery restart and
    microreboot differ on; mbus excluded, since a bus bounce fells
    everything), and zombie trials manifest as joint failures whose cure
    set spans the target and the next component in rotation, the
    ambiguous shape bisect exists for.  Traffic starts ``warmup_s``
    before the first injection and keeps flowing through every recovery;
    after the last trial the plane drains every in-flight chain so each
    started session ends completed or abandoned.  ``spec=None`` runs the
    same series with no plane at all: no ``users`` client, no traffic,
    ``effects`` ``None``.
    """
    if strategy and strategy not in strategy_names():
        raise ExperimentError(f"unknown recovery strategy: {strategy!r}")
    if failure_kind not in FAILURE_KINDS:
        raise ExperimentError(f"unknown failure kind: {failure_kind!r}")
    if failure_kind == "zombie":
        config = config.with_overrides(**ZOMBIE_PROBE_OVERRIDES)

    def build(boot_seed: int) -> MercuryStation:
        return MercuryStation(
            tree=tree,
            config=config,
            seed=boot_seed,
            oracle="perfect",
            trace_capacity=50_000,
            strategy=strategy or None,
        )

    # The shape names the supervisor: it feeds every boot seed.
    shape_params: Dict[str, Any] = dict(oracle="perfect", supervisor="full")
    if strategy:
        shape_params["strategy"] = strategy
    shape = station_shape("workload", tree, config, **shape_params)
    station = warmed_station(shape, build, MercuryStation.boot, seed, snapshot)

    checker = InvariantChecker(tree)
    station.kernel.trace.add_sink(checker)
    plane = None if spec is None else WorkloadPlane(station, spec)
    if plane is not None:
        plane.start()
    station.run_for(warmup_s)

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
    # Drain correlated follow-on failures (resync induction, re-manifests)
    # before reading the ledgers, so counters cover complete episodes.
    station.run_until_quiescent(timeout=quiesce_timeout)
    station.run_for(cooldown_s)
    effects: Optional[Dict[str, Any]] = None
    if plane is not None:
        plane.stop()
        plane.drain()
        effects = plane.finalize().to_payload()
    checker.finalize(station.kernel.now)

    counters: Dict[str, int] = {}
    if station.session_store is not None:
        counters = station.session_store.counters()
    return WorkloadCellResult(
        strategy=strategy,
        failure_kind=failure_kind,
        tree_name=tree.name,
        failures=failures,
        session_rate=0.0 if spec is None else spec.session_rate,
        mttr_samples=mttr_samples,
        effects=effects,
        sessions_lost=counters.get("sessions_lost", 0),
        sessions_restored=counters.get("sessions_restored", 0),
        checkpoints_restored=counters.get("checkpoints_restored", 0),
        messages_replayed=counters.get("messages_replayed", 0),
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
