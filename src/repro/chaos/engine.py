"""The chaos trial loop: glue a scenario to a station, check, and account.

:func:`run_chaos` is the per-(scenario, tree) work unit.  It builds one
station, arms the scenario's correlation groups, then per trial: waits for
quiescence, replays the scenario plan's timed injections, runs out the
plan's horizon, and drains the wreckage.  An
:class:`~repro.chaos.invariants.InvariantChecker` rides the event stream
for the whole run; its episode tracker is the cell's one fold from events
to episodes, the source of both the MTTR samples and the phase table.

Everything that feeds the returned :class:`ChaosResult` is derived from the
simulation clock and kernel-seeded RNG streams, so a (tree, scenario, seed)
triple reproduces bit-identically — which is what lets the parallel
campaign runner cache chaos cells content-addressed and lets
``make check-determinism`` byte-compare two runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.tree import RestartTree
from repro.errors import ExperimentError
from repro.experiments.metrics import RecoveryStats
from repro.experiments.snapshot import station_shape, warmed_station
from repro.faults.correlation import CorrelationGroup
from repro.mercury.config import PAPER_CONFIG, StationConfig
from repro.mercury.station import MercuryStation, OracleSpec
from repro.obs import events as ev
from repro.obs.sinks import MetricsSink, PhaseSnapshot, Sink, SummaryStat
from repro.obs.spans import phase_snapshot
from repro.chaos.invariants import InvariantChecker
from repro.chaos.scenarios import Injection, NetOp, Scenario, StoreOp, get_scenario
from repro.faults.store_faults import StoreFaultModel


@dataclass
class ChaosResult:
    """Outcome of one chaos campaign cell (one scenario on one tree)."""

    tree_name: str
    scenario: str
    trials: int
    #: Injections actually fired vs. dropped because the target component
    #: (or a cure-set member) does not exist in this tree generation.
    injected: int
    skipped: int
    #: Completed failure-recovery episodes (MTTR sample count).
    episodes: int
    mttr_samples: List[float] = field(default_factory=list)
    cured: int = 0
    escalations: int = 0
    #: Times the drain phase had to fall back to an operator whole-station
    #: restart because the supervisor could not reach quiescence alone.
    operator_interventions: int = 0
    #: Detector accuracy accounting: declarations whose component was in
    #: fact healthy, and reports the detector itself retracted.
    false_positives: int = 0
    retractions: int = 0
    #: Network-fabric accounting (zero for scenarios without net ops).
    net_dropped: int = 0
    net_duplicated: int = 0
    #: Crash-only recovery-plane accounting (zero for scenarios without
    #: store ops or supervisor kills).
    store_outages: int = 0
    store_fallbacks: int = 0
    plans_fenced: int = 0
    supervisor_restarts: int = 0
    records_quarantined: int = 0
    violations: List[Dict[str, Any]] = field(default_factory=list)
    phases: PhaseSnapshot = field(default_factory=dict)

    @property
    def stats(self) -> RecoveryStats:
        """Aggregate MTTR statistics over the completed episodes."""
        return RecoveryStats.from_samples(self.mttr_samples)

    def phase(self, name: str) -> SummaryStat:
        """One phase's durations (:data:`~repro.obs.spans.PHASES`) over
        every component's episodes."""
        stat = SummaryStat()
        for phases in self.phases.values():
            if name in phases:
                stat.merge(SummaryStat.from_dict(phases[name]))
        return stat

    @property
    def ok(self) -> bool:
        """Whether the run finished with zero invariant violations."""
        return not self.violations

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe form for campaign caching and reports."""
        return {
            "tree": self.tree_name,
            "scenario": self.scenario,
            "trials": self.trials,
            "injected": self.injected,
            "skipped": self.skipped,
            "episodes": self.episodes,
            "mttr_samples": list(self.mttr_samples),
            "cured": self.cured,
            "escalations": self.escalations,
            "operator_interventions": self.operator_interventions,
            "false_positives": self.false_positives,
            "retractions": self.retractions,
            "net_dropped": self.net_dropped,
            "net_duplicated": self.net_duplicated,
            "store_outages": self.store_outages,
            "store_fallbacks": self.store_fallbacks,
            "plans_fenced": self.plans_fenced,
            "supervisor_restarts": self.supervisor_restarts,
            "records_quarantined": self.records_quarantined,
            "violations": list(self.violations),
            "phases": self.phases,
        }

    @staticmethod
    def from_payload(payload: Dict[str, Any]) -> "ChaosResult":
        return ChaosResult(
            tree_name=payload["tree"],
            scenario=payload["scenario"],
            trials=payload["trials"],
            injected=payload["injected"],
            skipped=payload["skipped"],
            episodes=payload["episodes"],
            mttr_samples=list(payload["mttr_samples"]),
            cured=payload["cured"],
            escalations=payload["escalations"],
            operator_interventions=payload["operator_interventions"],
            false_positives=payload.get("false_positives", 0),
            retractions=payload.get("retractions", 0),
            net_dropped=payload.get("net_dropped", 0),
            net_duplicated=payload.get("net_duplicated", 0),
            store_outages=payload.get("store_outages", 0),
            store_fallbacks=payload.get("store_fallbacks", 0),
            plans_fenced=payload.get("plans_fenced", 0),
            supervisor_restarts=payload.get("supervisor_restarts", 0),
            records_quarantined=payload.get("records_quarantined", 0),
            violations=list(payload["violations"]),
            phases=payload["phases"],
        )


def _fire(
    station: MercuryStation, injection: Injection, components: frozenset
) -> bool:
    """Inject one planned fault; False when the station cannot host it.

    Targets are looked up in the process manager, not the tree: the
    supervisor scenarios shoot FD or REC, which every chaos station runs
    but no tree contains, and a target this tree generation does not run
    (``fedrcom`` after the split, ``fedr`` before it) is skipped.  Joint
    cure sets, by contrast, are satisfied by tree restart batches, so all
    their members must be station components.
    """
    if station.manager.maybe_get(injection.component) is None:
        return False
    if injection.cure_set is not None:
        cure_set = frozenset(injection.cure_set)
        if not cure_set <= components:
            return False
        station.injector.inject_joint(
            injection.component, cure_set, kind=injection.kind
        )
    else:
        station.injector.inject_simple(injection.component, kind=injection.kind)
    return True


def _apply_net(station: MercuryStation, op: NetOp) -> None:
    """Script one fabric operation (the station was built with net faults)."""
    faults = station.network.faults
    if faults is None:  # pragma: no cover - Scenario.build validates this
        raise ExperimentError(
            "scenario plans net ops but the station has no fault model"
        )
    if op.kind == "partition":
        faults.partition(op.a, op.b, op.duration)
    else:
        faults.degrade(
            op.a,
            op.b,
            duration=op.duration,
            drop=op.drop,
            spike_probability=op.spike_probability,
            spike_seconds=op.spike_seconds,
            duplicate_probability=op.duplicate_probability,
        )


def _apply_store(station: MercuryStation, op: StoreOp) -> None:
    """Script one session-store outage window."""
    store = station.session_store
    model = store.faults if store is not None else None
    if model is None:  # pragma: no cover - run_chaos attaches it up front
        raise ExperimentError(
            "scenario plans store ops but the station has no store fault model"
        )
    if op.kind == "hang":
        model.hang(op.duration)
    else:
        model.crash(op.duration)


def run_chaos(
    tree: RestartTree,
    scenario: Union[str, Scenario],
    trials: int = 1,
    seed: int = 0,
    oracle: OracleSpec = "perfect",
    oracle_error_rate: float = 0.3,
    config: StationConfig = PAPER_CONFIG,
    sinks: Sequence[Sink] = (),
    max_restart_duration: float = 180.0,
    quiesce_timeout: float = 600.0,
    snapshot: bool = True,
    strategy: Optional[str] = None,
    drop: float = 0.0,
) -> ChaosResult:
    """Run ``trials`` episodes of ``scenario`` against one tree.

    Each trial rebuilds the plan from the scenario's dedicated RNG stream,
    so trials vary their timings while the whole run stays a pure function
    of ``seed``.  A nonzero ``drop`` degrades every link from each trial's
    start until its drain (that share of messages lost, and as many
    delayed by 0.05–0.35 s); only a scenario that ``uses_network`` has the
    fabric for it.  The station keeps its aging/resync couplings armed —
    chaos wants the correlated machinery live, unlike the isolated Table 2
    recovery measurements.

    Station setup goes through the warmed-station snapshot cache: the
    invariant checker and sinks attach after the (deterministic, clean)
    boot, so they observe exactly the chaos portion of the run whether the
    station was restored or (``snapshot=False``) booted afresh.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if drop and not scenario.uses_network:
        raise ExperimentError(
            f"drop={drop!r} needs a network fault fabric; scenario "
            f"{scenario.name!r} does not declare uses_network"
        )
    if scenario.station_overrides:
        config = config.with_overrides(**dict(scenario.station_overrides))
    if strategy is None and scenario.default_strategy is not None:
        # Recipes exercising the crash-only recovery plane need a stateful
        # strategy (and its session store) unless the caller picked one.
        strategy = scenario.default_strategy

    def build(boot_seed: int) -> MercuryStation:
        return MercuryStation(
            tree=tree,
            config=config,
            seed=boot_seed,
            oracle=oracle,
            oracle_error_rate=oracle_error_rate,
            trace_capacity=50_000,
            net_faults=scenario.uses_network,
            strategy=strategy,
        )

    if isinstance(oracle, str):
        oracle_part = oracle
    else:
        oracle_part = f"instance:{type(oracle).__name__}"
        snapshot = False
    # The shape names the supervisor: it feeds every boot seed.
    shape_params = dict(
        oracle=oracle_part,
        oracle_error_rate=oracle_error_rate,
        supervisor="full",
        net_faults=scenario.uses_network,
    )
    if strategy is not None:
        # Only strategy-enabled stations carry the extra key, so every
        # classic shape (and its boot seed) is byte-identical to before the
        # strategy registry existed.
        shape_params["strategy"] = strategy
    shape = station_shape("chaos", tree, config, **shape_params)
    station = warmed_station(shape, build, MercuryStation.boot, seed, snapshot)
    if scenario.uses_store:
        # Attached post-boot (like sinks), so warmed-station templates and
        # classic boot traces stay byte-identical.
        if station.session_store is None:
            raise ExperimentError(
                f"scenario {scenario.name!r} injects store faults but the "
                f"station has no session store (pick a recovery strategy)"
            )
        station.session_store.attach_faults(
            StoreFaultModel(station.kernel, **dict(scenario.store_faults))
        )
    checker = InvariantChecker(tree, max_restart_duration=max_restart_duration)
    metrics = MetricsSink()
    station.kernel.trace.add_sink(checker)
    station.kernel.trace.add_sink(metrics)
    for sink in sinks:
        station.kernel.trace.add_sink(sink)
    components = frozenset(station.station_components)
    plan_rng = station.kernel.rngs.stream(f"chaos.{scenario.name}")
    groups: Dict[Tuple[str, ...], CorrelationGroup] = {}
    injected = 0
    skipped = 0
    operator_interventions = 0

    for _ in range(trials):
        station.run_until_quiescent(timeout=quiesce_timeout)
        plan = scenario.build(plan_rng, station.station_components)

        for spec in plan.groups:
            members = tuple(m for m in spec.members if m in components)
            if len(members) < 2:
                continue  # group does not exist in this tree generation
            group = groups.get(members)
            if group is None:
                groups[members] = CorrelationGroup(
                    station.injector,
                    members,
                    induce_probability=spec.induce_probability,
                    induced_delay=spec.induced_delay,
                )
            else:
                group.induce_probability = spec.induce_probability
                group.induced_delay = spec.induced_delay

        if drop:
            station.network.faults.degrade(
                drop=drop, spike_probability=drop, spike_seconds=(0.05, 0.35)
            )
        base = station.kernel.now
        # One merged timeline: fabric and store operations interleave with
        # injections in plan order (ops first at equal instants, so a
        # same-time crash already experiences the degraded link / dead
        # store).
        timeline = sorted(
            [(op.at, 0, op) for op in plan.net_ops]
            + [(op.at, 1, op) for op in plan.store_ops]
            + [(injection.at, 2, injection) for injection in plan.injections],
            key=lambda item: (item[0], item[1]),
        )
        for at, _, item in timeline:
            target = base + at
            if target > station.kernel.now:
                station.run_for(target - station.kernel.now)
            if isinstance(item, NetOp):
                _apply_net(station, item)
            elif isinstance(item, StoreOp):
                _apply_store(station, item)
            elif _fire(station, item, components):
                injected += 1
            else:
                skipped += 1
        horizon_end = base + plan.horizon
        if horizon_end > station.kernel.now:
            station.run_for(horizon_end - station.kernel.now)

        # Drain: the supervisor gets a full quiescence window on its own;
        # if it cannot converge (budget exhausted, escalated failure), an
        # "operator" bounces the whole station — the paper's last resort.
        # The fabric is cleared first: chaos ends at the horizon, and
        # quiescence is judged on a healthy network.
        if station.network.faults is not None:
            station.network.faults.clear()
        for group in groups.values():
            group.enabled = False
        try:
            station.run_until_quiescent(timeout=quiesce_timeout)
        except ExperimentError:
            operator_interventions += 1
            station.manager.restart(station.station_components)
            station.run_until_quiescent(timeout=quiesce_timeout)
        finally:
            for group in groups.values():
                group.enabled = True
                group.rearm()

    for group in groups.values():
        group.enabled = False
    checker.finalize(station.kernel.now)
    for sink in sinks:
        sink.close()

    mttr_samples = [
        episode.total_recovery
        for episode in checker.tracker.episodes
        if episode.kind == "failure"
        and episode.is_complete
        and episode.total_recovery is not None
    ]
    faults = station.network.faults
    return ChaosResult(
        tree_name=tree.name,
        scenario=scenario.name,
        trials=trials,
        injected=injected,
        skipped=skipped,
        episodes=len(mttr_samples),
        mttr_samples=mttr_samples,
        cured=metrics.count(ev.FAILURE_CURED),
        escalations=metrics.count(ev.OPERATOR_ESCALATION),
        operator_interventions=operator_interventions,
        false_positives=metrics.count(ev.DETECTION_FALSE_POSITIVE),
        retractions=metrics.count(ev.DETECTION_RETRACTED),
        net_dropped=faults.messages_dropped if faults is not None else 0,
        net_duplicated=faults.messages_duplicated if faults is not None else 0,
        store_outages=metrics.count(ev.STORE_CRASHED),
        store_fallbacks=metrics.count(ev.STRATEGY_FALLBACK),
        plans_fenced=metrics.count(ev.PLAN_FENCED),
        supervisor_restarts=metrics.count(ev.SUPERVISOR_RESTARTED),
        records_quarantined=metrics.count(ev.STORE_RECORD_QUARANTINED),
        violations=checker.violation_payloads(),
        phases=phase_snapshot(checker.tracker.episodes),
    )
