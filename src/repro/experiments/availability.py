"""The steady-state cell: one long run of a tree under Table 1 arrivals.

The paper judges a restart tree by numbers that all come from one
long-running station, so one run reports all of them:

* system availability (fraction of time all station components up, per
  ``A_entire``), observed system MTTR (mean outage duration) — the §8
  factor-of-four claim is about this quantity between tree I and the
  evolved trees — and annualised downtime minutes, the ops-facing framing;
* the observed Table 1 lifetimes: per-component uptime, steady-state
  injector arrivals and SIGKILL failures of any cause.  Uptime over
  arrivals estimates the configured MTTF even with the §4.3 resync
  coupling and ``pbcom`` aging on; uptime over failures is the all-cause
  MTTF, which those mechanisms shorten;
* the §5.2 downlink over every whole Opal/Sapphire pass inside the
  horizon ("not all downtime is the same"): science data lost, links
  broken and whole passes lost;
* software rejuvenation (§3, §6), when ``rejuvenation_period_s`` is set:
  every period the supervisor restarts the cell covering ``pbcom``, the
  component fedr's disconnects age, unless a pass is in view.  Planned
  restarts cost availability and save the passes; the cell reports the
  aging crashes left, the proactive restarts and the skipped rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.tree import RestartTree
from repro.errors import ExperimentError
from repro.experiments.metrics import UptimeTracker
from repro.experiments.snapshot import station_shape, warmed_station
from repro.mercury.config import PAPER_CONFIG, StationConfig
from repro.mercury.orbit import PassWindow, default_satellites, predict_passes
from repro.mercury.passes import PassAccountant
from repro.mercury.station import MercuryStation
from repro.mercury.trees import uses_split_components
from repro.obs import events as ev
from repro.obs.sinks import PhaseSnapshot, SummaryStat
from repro.obs.spans import EpisodeTracker, phase_snapshot

YEAR_MINUTES = 365.0 * 24.0 * 60.0

#: A rejuvenation round skips itself when a pass overlaps the next minute:
#: longer than pbcom's ≈22 s restart, so a planned restart never bleeds
#: into a pass (§5.2: downtime during a pass is the expensive kind).
REJUVENATION_MARGIN_S = 60.0


@dataclass
class AvailabilityResult:
    """One tree's steady-state run: availability, lifetimes and downlink."""

    tree_name: str
    horizon_s: float
    availability: float
    outages: int
    total_downtime_s: float
    mean_outage_s: Optional[float]
    component_mttr: Dict[str, Optional[float]]
    #: Per-(component, phase) recovery-latency aggregates from the live
    #: episode spans: ``{component: {phase: SummaryStat.to_dict()}}``.
    phase_breakdown: PhaseSnapshot
    #: Per-component seconds up over the horizon.
    component_uptime_s: Dict[str, float]
    #: Per-component SIGKILL failures, whatever caused them.
    component_failures: Dict[str, int]
    #: Per-component steady-state injector arrivals (Table 1's failures).
    arrivals: Dict[str, int]
    #: §5.2 downlink totals over the whole pass windows inside the horizon.
    passes: int
    pass_expected_bytes: float
    pass_received_bytes: float
    broken_links: int
    whole_passes_lost: int
    #: pbcom crashes from fedr-disconnect aging (0 where nothing ages).
    aging_crashes: int
    #: Rejuvenation restarts the supervisor accepted.
    proactive_restarts: int
    #: Rejuvenation rounds skipped because a pass was in view.
    rejuvenation_skipped: int

    def mttf(self, component: str) -> Optional[float]:
        """Table 1's observed MTTF: uptime / arrivals (None without any)."""
        arrivals = self.arrivals.get(component, 0)
        return self.component_uptime_s[component] / arrivals if arrivals else None

    def all_cause_mttf(self, component: str) -> Optional[float]:
        """Uptime / failures of any cause (None without any)."""
        failures = self.component_failures[component]
        return self.component_uptime_s[component] / failures if failures else None

    @property
    def pass_loss_fraction(self) -> float:
        """Fraction of the passes' expected science data lost."""
        if not self.pass_expected_bytes:
            return 0.0
        lost = max(self.pass_expected_bytes - self.pass_received_bytes, 0.0)
        return lost / self.pass_expected_bytes

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


def pass_in_view(windows: Sequence[PassWindow], now: float) -> bool:
    """Whether a pass is in progress at ``now`` or starts within
    :data:`REJUVENATION_MARGIN_S` of it."""
    horizon = now + REJUVENATION_MARGIN_S
    return any(window.end > now and window.start < horizon for window in windows)


class _Rejuvenation:
    """Every ``period`` s (±5 %), a proactive restart of the cell covering
    the aging victim, skipped while a pass is in view.  The supervisor
    refuses a round while it is recovering; that round is simply lost."""

    def __init__(
        self, station: MercuryStation, windows: Sequence[PassWindow], period: float
    ) -> None:
        self.kernel = station.kernel
        self.request_restart = station.abstract_supervisor.request_restart
        self.cell = station.tree.minimal_cell_covering([station.aging.victim])
        self.windows = windows
        self.period = period
        self._rng = self.kernel.rngs.stream("rejuvenation.jitter")
        self.restarts = 0
        self.skipped = 0
        self._schedule()

    def _schedule(self) -> None:
        jitter = 0.05 * self.period
        self.kernel.schedule_after(self.period + self._rng.uniform(-jitter, jitter), self._round)

    def _round(self) -> None:
        self._schedule()
        if pass_in_view(self.windows, self.kernel.now):
            self.skipped += 1
        elif self.request_restart(self.cell, "rejuvenation"):
            self.restarts += 1
            self.kernel.trace.emit("rejuvenation", ev.PROACTIVE_RESTART, cell=self.cell)


def measure_availability(
    tree: RestartTree,
    horizon_s: float,
    seed: int = 0,
    config: StationConfig = PAPER_CONFIG,
    oracle: str = "perfect",
    sinks: Sequence = (),
    snapshot: bool = True,
    rejuvenation_period_s: float = 0.0,
) -> AvailabilityResult:
    """Run steady-state faults for ``horizon_s`` and account availability,
    lifetimes and the downlink of every pass that starts and ends inside
    the horizon.

    Record retention stays off, and on its own the run builds only the
    records its phase table reads; a sink in ``sinks`` that reads every
    kind still gets every trace emit (the determinism gate streams the run
    to JSONL this way).

    Station setup goes through the warmed-station snapshot cache; the
    warm point is the end of the 120 s boot settle, so the horizon does
    not enter the shape and one template serves every horizon length.

    ``rejuvenation_period_s`` > 0 turns rejuvenation on (0 = off); trees I
    and II have no pbcom, so nothing to rejuvenate, and refuse it.
    """
    if not 0 < horizon_s < math.inf:
        raise ExperimentError(f"horizon must be positive and finite: {horizon_s!r}")
    if not 0 <= rejuvenation_period_s < math.inf:
        raise ExperimentError(
            f"rejuvenation_period_s must be >= 0 and finite: {rejuvenation_period_s!r}"
        )
    if rejuvenation_period_s and not uses_split_components(tree):
        raise ExperimentError(
            f"rejuvenation_period_s={rejuvenation_period_s!r}: tree {tree.name!r} "
            "has no pbcom, so nothing ages"
        )

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
    steady = station.steady
    assert steady is not None
    steady.rearm()
    start = station.kernel.now
    windows = [
        window
        for satellite in default_satellites()
        for window in predict_passes(satellite, horizon_s=horizon_s, start=start)
        if window.end <= start + horizon_s
    ]
    downlink = PassAccountant(station, windows).summary
    arrived = dict(steady.arrivals)
    aging = station.aging
    aged_out = aging.aged_out_count if aging is not None else 0
    episodes = EpisodeTracker()
    station.kernel.trace.add_sink(episodes)
    rejuvenation = (
        _Rejuvenation(station, windows, rejuvenation_period_s) if rejuvenation_period_s else None
    )
    for sink in sinks:
        station.kernel.trace.add_sink(sink)
    tracker = UptimeTracker(station.manager, station.station_components)
    station.run_for(horizon_s)
    tracker.finalize()
    episodes.flush()
    for sink in sinks:
        sink.close()
    outages = tracker.system_outages
    mean_outage = tracker.system_downtime / outages if outages else None
    components = station.station_components
    return AvailabilityResult(
        tree_name=tree.name,
        horizon_s=horizon_s,
        availability=tracker.system_availability(),
        outages=outages,
        total_downtime_s=tracker.system_downtime,
        mean_outage_s=mean_outage,
        component_mttr={name: tracker.observed_mttr(name) for name in components},
        phase_breakdown=phase_snapshot(episodes.episodes),
        component_uptime_s={name: tracker.component_uptime(name) for name in components},
        component_failures={name: tracker.failures_of(name) for name in components},
        arrivals={name: count - arrived[name] for name, count in steady.arrivals.items()},
        passes=downlink.passes,
        pass_expected_bytes=downlink.total_expected_bytes,
        pass_received_bytes=downlink.total_received_bytes,
        broken_links=downlink.broken_links,
        whole_passes_lost=downlink.whole_passes_lost,
        aging_crashes=aging.aged_out_count - aged_out if aging is not None else 0,
        proactive_restarts=rejuvenation.restarts if rejuvenation else 0,
        rejuvenation_skipped=rejuvenation.skipped if rejuvenation else 0,
    )
