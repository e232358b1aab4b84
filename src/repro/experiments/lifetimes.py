"""Observed per-component MTTFs (paper Table 1).

Table 1 is an *input* in the paper — operator estimates from two years of
production ("rough estimates of component failure rates, made by the
administrators").  The reproduction closes the loop: we configure the fault
injectors with Table 1's means, run the station for a long simulated
horizon under the abstract supervisor, and report the *observed* MTTF per
component (total uptime divided by failure count), which should converge to
the configured values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.tree import RestartTree
from repro.experiments.metrics import UptimeTracker
from repro.experiments.snapshot import station_shape, warmed_station
from repro.mercury.config import PAPER_CONFIG, StationConfig
from repro.mercury.station import MercuryStation


@dataclass
class LifetimeResult:
    """Observed failure behaviour over one long run."""

    horizon_s: float
    configured_mttf: Dict[str, float]
    observed_mttf: Dict[str, Optional[float]]
    failures: Dict[str, int]
    system_availability: float

    def relative_error(self, component: str) -> Optional[float]:
        """|observed − configured| / configured, or None without failures."""
        observed = self.observed_mttf.get(component)
        configured = self.configured_mttf.get(component)
        if observed is None or not configured:
            return None
        return abs(observed - configured) / configured


def measure_lifetimes(
    tree: RestartTree,
    horizon_s: float,
    seed: int = 0,
    config: StationConfig = PAPER_CONFIG,
    correlations: bool = False,
    snapshot: bool = True,
) -> LifetimeResult:
    """Run ``horizon_s`` simulated seconds of steady-state failures.

    Uses the abstract supervisor (§ detection docs) so month-scale horizons
    stay tractable; recovery semantics are identical to the full stack.

    ``correlations`` defaults to off for the Table 1 closure: the resync
    and aging mechanisms *induce* extra failures (a ses restart crashes a
    stale str, fedr disconnects age pbcom), which roughly halves ses/str's
    observed MTTF relative to the configured arrival rate.  That is real
    behaviour — availability experiments keep it on — but the Table 1 check
    is about the injectors matching their configured means.

    Station setup goes through the warmed-station snapshot cache; the
    correlation switches are flipped after the restore (no correlated
    machinery can fire during a clean 120 s warm), keeping one template
    per (tree, config) shape for both ``correlations`` settings.
    """

    def build(boot_seed: int) -> MercuryStation:
        return MercuryStation(
            tree=tree,
            config=config,
            seed=boot_seed,
            oracle="perfect",
            supervisor="abstract",
            steady_faults=True,
            solution_period=600.0,
            trace_capacity=10_000,
        )

    def warm(station: MercuryStation) -> None:
        # MTTFs come from lifecycle accounting, not the trace; skip
        # retention.
        station.kernel.trace.enabled = False
        station.manager.start_all(station.station_components)
        station.kernel.run(until=station.kernel.now + 120.0)  # boot settle

    shape = station_shape("lifetimes", tree, config)
    station = warmed_station(shape, build, warm, seed, snapshot)
    assert station.steady is not None
    station.steady.rearm()
    if not correlations:
        station.resync_coupling.enabled = False
        if station.aging is not None:
            station.aging.enabled = False
    tracker = UptimeTracker(station.manager, station.station_components)
    station.run_for(horizon_s)
    tracker.finalize()
    observed = {
        name: tracker.observed_mttf(name) for name in station.station_components
    }
    failures = {name: tracker.failures_of(name) for name in station.station_components}
    configured = {
        name: config.mttf_seconds[name]
        for name in station.station_components
        if name in config.mttf_seconds
    }
    return LifetimeResult(
        horizon_s=horizon_s,
        configured_mttf=configured,
        observed_mttf=observed,
        failures=failures,
        system_availability=tracker.system_availability(),
    )
