"""Kill-and-measure recovery experiments (paper §4.1 methodology).

"To measure the effect this transformation has on system recovery time, we
cause the failure of each component (using a SIGKILL signal) and measure how
long the system takes to recover.  We log the time when the signal is sent;
once the component determines it is functionally ready, it logs a
timestamped message.  The difference between these two times is what we
consider to be the recovery time.  Table 2 shows the results of 100
experiments for each failed component."

Our recovery time for one trial is the interval from the injection until
(a) the injected failure's minimal cure set has been restarted (the failure
is *cured*) **and** (b) every station component is RUNNING again — i.e. the
station has returned to full service.  For singleton restarts this equals
the component's own functionally-ready instant; for whole-group restarts it
is the group's completion, matching the paper's tree-I "system recovery"
reading.  Trials are separated by a quiescence wait so correlated follow-on
failures (ses/str induction, pbcom aging) drain before the next injection,
and the injection instant carries a uniform phase within the FD ping period
so detection latency is sampled fairly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.core.tree import RestartTree
from repro.experiments.metrics import RecoveryStats
from repro.experiments.snapshot import station_shape, warmed_station
from repro.mercury.config import PAPER_CONFIG, StationConfig
from repro.mercury.station import MercuryStation
from repro.obs.sinks import PhaseSnapshot, Sink, SummaryStat
from repro.obs.spans import EpisodeTracker, phase_snapshot


@dataclass
class RecoveryResult:
    """All samples for one (tree, oracle, component, cure-set) cell."""

    tree_name: str
    oracle: str
    component: str
    cure_set: FrozenSet[str]
    samples: List[float] = field(default_factory=list)
    #: Per-(component, phase) duration aggregates from the live episode
    #: spans: ``{component: {phase: SummaryStat.to_dict()}}``.  Includes
    #: every component that had episodes during the cell, not only the
    #: injected one (escalated restarts touch neighbours).
    phases: PhaseSnapshot = field(default_factory=dict)

    @property
    def stats(self) -> RecoveryStats:
        """Summary statistics of the samples."""
        return RecoveryStats.from_samples(self.samples)

    @property
    def mean(self) -> float:
        """Mean recovery time in seconds."""
        return self.stats.mean

    def phase_summary(self, component: Optional[str] = None) -> Dict[str, SummaryStat]:
        """Per-phase duration accumulators for ``component`` (default: the
        injected one): detection / decision / restart / total."""
        slot = self.phases.get(component or self.component, {})
        return {phase: SummaryStat.from_dict(payload) for phase, payload in slot.items()}


def measure_recovery(
    tree: RestartTree,
    component: str,
    trials: int = 100,
    seed: int = 0,
    oracle: str = "perfect",
    oracle_error_rate: float = 0.3,
    oracle_too_high_rate: float = 0.0,
    cure_set: Optional[Sequence[str]] = None,
    config: StationConfig = PAPER_CONFIG,
    supervisor: str = "full",
    trial_timeout: float = 300.0,
    aging: bool = False,
    sinks: Optional[Sequence[Sink]] = None,
    snapshot: bool = True,
) -> RecoveryResult:
    """Run ``trials`` kill-and-measure experiments for one component.

    ``cure_set`` defaults to the component alone (a plain crash); §4.4's
    experiments pass ``("fedr", "pbcom")`` with ``component="pbcom"`` to
    inject failures curable only by the joint restart.

    One station is reused across trials (as in the live Mercury runs), with
    a quiescence wait and a random ping-phase offset between injections.

    ``aging`` defaults to off: back-to-back trials compress fedr
    disconnects ~60x relative to their natural Table 1 rate, which would
    fire pbcom's aging mechanism inside unrelated episodes.  The paper's
    tables measure each restart path in isolation (aging-induced pbcom
    failures appear as the pbcom column, not as fedr noise); the
    steady-state availability cell keeps aging on.

    Per-phase latencies (detection / decision / restart) come from an
    :class:`~repro.obs.spans.EpisodeTracker` fed live from the trace — spans
    are built as events arrive, never re-scanned from the ring buffer —
    and land in :attr:`RecoveryResult.phases`.  Record retention is off,
    so on its own the cell builds only the records the phase table reads.
    Extra ``sinks`` (e.g. a :class:`~repro.obs.sinks.JsonlSink`, which
    reads every kind and so still gets every record) can be attached for
    the run's duration; sinks only observe emits, so attaching them cannot
    perturb the measured samples.

    Station setup goes through the warmed-station snapshot cache (see
    :mod:`repro.experiments.snapshot`): the first cell of a shape boots,
    later cells restore the warmed image and rebase onto their own seed.
    ``snapshot=False`` boots afresh instead (the differential reference).
    """
    cure = frozenset(cure_set) if cure_set is not None else frozenset([component])

    def build(boot_seed: int) -> MercuryStation:
        return MercuryStation(
            tree=tree,
            config=config,
            seed=boot_seed,
            oracle=oracle,
            oracle_error_rate=oracle_error_rate,
            oracle_too_high_rate=oracle_too_high_rate,
            supervisor=supervisor,
        )

    if isinstance(oracle, str):
        oracle_part = oracle
    else:
        # An oracle *instance* carries state the shape key cannot see;
        # run it through the uncached path (same boot-seed + rebase).
        oracle_part = f"instance:{type(oracle).__name__}"
        snapshot = False
    shape = station_shape(
        "recovery",
        tree,
        config,
        oracle=oracle_part,
        oracle_error_rate=oracle_error_rate,
        oracle_too_high_rate=oracle_too_high_rate,
        supervisor=supervisor,
    )
    station = warmed_station(shape, build, MercuryStation.boot, seed, snapshot)
    if not aging and station.aging is not None:
        station.aging.enabled = False
    station.kernel.trace.enabled = False
    tracker = EpisodeTracker()
    station.kernel.trace.add_sink(tracker)
    for sink in sinks or ():
        station.kernel.trace.add_sink(sink)
    phase_rng = station.kernel.rngs.stream("experiment.injection_phase")
    result = RecoveryResult(
        tree_name=tree.name,
        oracle=station.oracle.describe(),
        component=component,
        cure_set=cure,
    )
    for _trial in range(trials):
        station.run_until_quiescent(timeout=trial_timeout)
        # Uniform phase within the ping period so detection latency is
        # sampled from its true distribution.
        station.run_for(phase_rng.uniform(0.0, config.ping_period))
        if cure == frozenset([component]):
            failure = station.injector.inject_simple(component)
        else:
            failure = station.injector.inject_joint(component, cure)
        result.samples.append(
            station.run_until_recovered(failure, timeout=trial_timeout)
        )
        # Let the episode's observation window expire before the next trial:
        # a fresh failure inside the window would read as "the restart did
        # not cure" and trigger a spurious escalation.
        station.run_for(config.observation_window + 1.0)
    tracker.flush()
    result.phases = phase_snapshot(tracker.episodes)
    return result


def measure_recovery_row(
    tree: RestartTree,
    components: Sequence[str],
    trials: int = 100,
    seed: int = 0,
    oracle: str = "perfect",
    oracle_error_rate: float = 0.3,
    config: StationConfig = PAPER_CONFIG,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    shard_size: Optional[int] = None,
) -> List[RecoveryResult]:
    """One Table 2/4 row: recovery stats for each listed component.

    Each cell's seed is hash-derived from ``(seed, tree, oracle,
    component)`` — never from the component's position — so adding or
    reordering columns cannot perturb any other cell's random stream.
    ``jobs`` fans cells across worker processes and ``cache_dir`` enables
    the content-addressed result cache (see
    :mod:`repro.experiments.runner`); results are bit-identical for any
    ``jobs`` value.  It is a one-row :func:`run_recovery_matrix`, which
    skips a component the tree lacks: asking for one here is a ``KeyError``.
    """
    from repro.experiments.runner import run_recovery_matrix

    label = tree.name[5:] if tree.name.startswith("tree-") else tree.name
    matrix = run_recovery_matrix(
        [(label, oracle)],
        components,
        trials=trials,
        seed=seed,
        oracle_error_rate=oracle_error_rate,
        config=config,
        jobs=jobs,
        cache_dir=cache_dir,
        shard_size=shard_size,
        trees={label: tree},
    )
    return [matrix[(label, oracle, component)] for component in components]
