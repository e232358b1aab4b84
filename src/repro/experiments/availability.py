"""Steady-state availability per restart tree (paper §3, §8).

"Availability is generally thought of as the ratio MTTF/(MTTF+MTTR);
recursive restartability improves this ratio by reducing MTTR."  The paper's
headline: recovery time improved by a factor of four (§8).

This experiment runs each tree under identical Table 1 fault arrivals for a
long horizon and reports:

* system availability (fraction of time all station components up, per
  ``A_entire``);
* observed system MTTR (mean outage duration) — the factor-of-four claim is
  about this quantity between tree I and the evolved trees;
* annualised downtime minutes, the ops-facing framing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.core.tree import RestartTree
from repro.experiments.metrics import UptimeTracker
from repro.experiments.snapshot import station_shape, warmed_station
from repro.mercury.config import PAPER_CONFIG, StationConfig
from repro.mercury.station import MercuryStation
from repro.obs.sinks import PhaseSink, PhaseSnapshot, SummaryStat

YEAR_MINUTES = 365.0 * 24.0 * 60.0


@dataclass
class AvailabilityResult:
    """Availability metrics for one tree under steady-state faults."""

    tree_name: str
    horizon_s: float
    availability: float
    outages: int
    total_downtime_s: float
    mean_outage_s: Optional[float]
    component_mttr: Dict[str, Optional[float]]
    #: Per-(component, phase) recovery-latency aggregates from the live
    #: episode spans: ``{component: {phase: SummaryStat.to_dict()}}``.
    phase_breakdown: PhaseSnapshot = field(default_factory=dict)

    def phase_summary(self, component: str) -> Dict[str, SummaryStat]:
        """Per-phase duration accumulators for one component."""
        return {
            phase: SummaryStat.from_dict(payload)
            for phase, payload in self.phase_breakdown.get(component, {}).items()
        }

    @property
    def annual_downtime_minutes(self) -> float:
        """Expected minutes of downtime per year at this availability."""
        return (1.0 - self.availability) * YEAR_MINUTES


def measure_availability(
    tree: RestartTree,
    horizon_s: float,
    seed: int = 0,
    config: StationConfig = PAPER_CONFIG,
    oracle: str = "perfect",
    sinks: Sequence = (),
    snapshot: bool = True,
) -> AvailabilityResult:
    """Run steady-state faults for ``horizon_s`` and account availability.

    Record retention stays off, and on its own the run builds only the
    records its phase table reads; a sink in ``sinks`` that reads every
    kind still gets every trace emit (the determinism gate streams the run
    to JSONL this way).

    Station setup goes through the warmed-station snapshot cache; the
    warm point is the end of the 120 s boot settle, so the horizon does
    not enter the shape and one template serves every horizon length.
    """

    def build(boot_seed: int) -> MercuryStation:
        return MercuryStation(
            tree=tree,
            config=config,
            seed=boot_seed,
            oracle=oracle,
            supervisor="abstract",
            steady_faults=True,
            solution_period=600.0,
            trace_capacity=10_000,
        )

    def warm(station: MercuryStation) -> None:
        # Availability is accounted from process-manager lifecycle
        # callbacks, never from the trace; skip record retention on the
        # month-scale loop.  Sinks still receive the kinds they declared
        # while the trace is disabled, which is how the per-phase breakdown
        # is computed without retaining records.
        station.kernel.trace.enabled = False
        station.manager.start_all(station.station_components)
        station.kernel.run(until=station.kernel.now + 120.0)

    shape = station_shape("availability", tree, config, oracle=oracle)
    station = warmed_station(shape, build, warm, seed, snapshot)
    # The template's armed lifetimes were drawn under the boot seed;
    # redraw them so first arrivals belong to this cell's streams.
    assert station.steady is not None
    station.steady.rearm()
    phases = PhaseSink()
    station.kernel.trace.add_sink(phases)
    for sink in sinks:
        station.kernel.trace.add_sink(sink)
    tracker = UptimeTracker(station.manager, station.station_components)
    station.run_for(horizon_s)
    tracker.finalize()
    phases.close()
    for sink in sinks:
        sink.close()
    outages = tracker.system_outages
    mean_outage = tracker.system_downtime / outages if outages else None
    return AvailabilityResult(
        tree_name=tree.name,
        horizon_s=horizon_s,
        availability=tracker.system_availability(),
        outages=outages,
        total_downtime_s=tracker.system_downtime,
        mean_outage_s=mean_outage,
        component_mttr={
            name: tracker.observed_mttr(name)
            for name in station.station_components
        },
        phase_breakdown=phases.phase_snapshot(),
    )
