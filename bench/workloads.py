"""The five campaign workloads.

Each workload is a fixed list of cell specs generated here from ``--seed``
(through :func:`repro.experiments.runner.campaign_seed`); the program under
test receives only those specs.  One *pass* executes the whole list once,
one cell per timed slice.  The open-loop traffic generators run in simulated
time, so generator lateness is zero by construction.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments import availability as availability_cells
from repro.experiments import fleet as fleet_cells
from repro.experiments import recovery as recovery_cells
from repro.experiments import workload as workload_cells
from repro.experiments.fleet import FleetResult, FleetSpec, run_fleet_cell
from repro.experiments.runner import (
    CampaignCell,
    campaign_seed,
    execute_cell,
    plan_recovery_cell,
)
from repro.mercury.station import MercuryStation
from repro.mercury.trees import TREE_BUILDERS, tree_v
from repro.workload.effects import UserEffects
from repro.workload.generator import WorkloadSpec
from repro.workload.plane import WorkloadPlane

import table4

Payload = Dict[str, Any]
Check = Tuple[str, bool]
#: Runs one callable as a timed slice and returns its result.
Timed = Callable[[Callable[[], Any]], Any]

#: Simulated-result metrics every workload reports (0 where it has none).
RESULT_METRICS: Tuple[Tuple[str, str], ...] = (
    ("result.sim_mttr_s", "s"),
    ("result.sim_mttr_rel_err", "ratio"),
    ("result.sim_goodput_ratio", "ratio"),
    ("result.sim_session_loss_ratio", "ratio"),
    ("result.sim_request_latency_ms", "ms"),
    ("result.sim_availability", "ratio"),
)


class StationLedger:
    """Remembers the stations a pass forks, to read their public counters.

    The experiment entry points return payloads, not stations, so the
    kernel, network and session-store counters of a finished cell are out
    of reach.  The ledger wraps the ``warmed_station`` name each experiment
    module imported -- a span recorded from the benchmark's side of the
    boundary -- and notes every station with its counters at fork time.
    It keeps those stations alive until :meth:`collect`, so only the traced
    run installs it: the timed run's ``peak_rss_mb`` is the program's own.
    """

    def __init__(self) -> None:
        self._forks: List[Tuple[MercuryStation, int, int]] = []

    def install(self) -> None:
        for module in (availability_cells, fleet_cells, recovery_cells, workload_cells):
            module.warmed_station = self._noting(module.warmed_station)

    def _noting(self, fork: Callable[..., MercuryStation]) -> Callable[..., MercuryStation]:
        def noting_fork(*args: Any, **kwargs: Any) -> MercuryStation:
            station = fork(*args, **kwargs)
            self.note(station)
            return station

        return noting_fork

    def note(self, station: MercuryStation) -> None:
        self._forks.append(
            (
                station,
                station.kernel.events_executed,
                station.network.connections_established,
            )
        )

    def collect(self) -> Dict[str, int]:
        """Counter totals since the last collect; forgets the stations."""
        totals = {"events": 0, "connections": 0, "store_ops": 0}
        for station, events, connections in self._forks:
            totals["events"] += station.kernel.events_executed - events
            totals["connections"] += (
                station.network.connections_established - connections
            )
            if station.session_store is not None:
                totals["store_ops"] += sum(station.session_store.counters().values())
        self._forks.clear()
        return totals


def digest(payloads: Sequence[Optional[Payload]]) -> str:
    """SHA-256 of the canonical JSON of a pass's result payloads."""
    text = json.dumps(payloads, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _traffic_outcomes(ledgers: Sequence[Payload]) -> Dict[str, float]:
    merged = UserEffects()
    for ledger in ledgers:
        merged.merge(UserEffects.from_payload(ledger))
    return {
        "result.sim_goodput_ratio": merged.requests_ok / merged.requests_offered,
        "result.sim_session_loss_ratio": merged.session_loss_ratio,
        "result.sim_request_latency_ms": 1000.0 * merged.latency.mean,
    }


def _traffic_checks(name: str, ledger: Payload) -> List[Check]:
    """Request and session conservation after a drain."""
    return [
        (
            name + ".requests_conserved",
            ledger["requests_offered"]
            == ledger["requests_ok"] + ledger["requests_failed"],
        ),
        (
            name + ".sessions_conserved",
            ledger["sessions_started"]
            == ledger["sessions_completed"] + ledger["sessions_abandoned"],
        ),
    ]


def _requests_resolved(ledger: Payload) -> int:
    return ledger["requests_ok"] + ledger["requests_failed"]


class Workload:
    """One workload: how to plan, warm, run and judge its cell list."""

    name = ""
    #: What one unit of ``work_per_cal_s`` is.
    work_unit = ""
    why = ""

    def plan(self, seed: int) -> List[Any]:
        """The cell specs for ``seed`` (pure function of the seed)."""
        raise NotImplementedError

    def warm(self, specs: Sequence[Any]) -> None:
        """Set-up: fill template caches and finish lazy imports."""
        raise NotImplementedError

    def run_cell(self, spec: Any) -> Payload:
        raise NotImplementedError

    def run_pass(
        self, specs: Sequence[Any], timed: Timed, ledger: Optional[StationLedger]
    ) -> List[Optional[Payload]]:
        """Execute every cell once, each as one timed slice.

        A cell that raises is reported on stderr and yields ``None``.
        ``ledger`` is the traced run's; the timed run passes ``None``.
        """
        payloads: List[Optional[Payload]] = []
        for spec in specs:
            try:
                payloads.append(timed(lambda: self.run_cell(spec)))
            except Exception:  # noqa: BLE001 - count the cell failed, keep going
                traceback.print_exc(file=sys.stderr)
                payloads.append(None)
        return payloads

    def work(self, specs: Sequence[Any], payloads: Sequence[Payload]) -> float:
        raise NotImplementedError

    def events(self, payloads: Sequence[Payload], station_events: int) -> int:
        """Kernel events one pass executed."""
        return station_events

    def cell_ok(self, spec: Any, payload: Payload) -> bool:
        return not payload.get("violations")

    def outcomes(self, specs: Sequence[Any], payloads: Sequence[Payload]) -> Dict[str, float]:
        raise NotImplementedError

    def checks(self, specs: Sequence[Any], payloads: Sequence[Payload]) -> List[Check]:
        """Whole-pass criteria beyond each cell's own ``cell_ok``."""
        return []


class RecoveryMatrix(Workload):
    name = "recovery-matrix"
    work_unit = "recovery trial"
    why = (
        "Table 4, the paper's own experiment: station fork, FD ping/declare, "
        "REC plan/execute and procmgr restarts dominate; the codec sees almost "
        "only fast-path pings."
    )
    trials = 30
    #: The two §4.4 faulty-oracle pbcom cells are a 30 % Bernoulli mixture;
    #: at 30 trials the V-beats-IV margin fails on about 1 seed in 100, so
    #: they run three 30-trial shards (same slice size, a third the noise).
    noisy_cell_shards = 3

    def plan(self, seed: int) -> List[CampaignCell]:
        cells: List[CampaignCell] = []
        for label, oracle in table4.ROWS:
            present = TREE_BUILDERS[label]().components
            for component in table4.COLUMNS:
                if component not in present:
                    continue
                cure = table4.cure_set_for(oracle, component)
                shards = self.noisy_cell_shards if cure else 1
                cells += plan_recovery_cell(
                    label,
                    component,
                    self.trials * shards,
                    seed,
                    shard_size=self.trials,
                    oracle=oracle,
                    oracle_error_rate=0.3,
                    cure_set=cure,
                )
        return cells

    def warm(self, specs: Sequence[CampaignCell]) -> None:
        shapes = {(cell.tree, cell.oracle): cell for cell in specs}
        for cell in shapes.values():
            execute_cell(dataclasses.replace(cell, trials=1))

    def run_cell(self, spec: CampaignCell) -> Payload:
        return execute_cell(spec)

    def work(self, specs, payloads) -> float:
        return float(sum(len(p["samples"]) for p in payloads))

    def cell_ok(self, spec: CampaignCell, payload: Payload) -> bool:
        samples = payload["samples"]
        return len(samples) == spec.trials and all(
            0.0 < s < spec.trial_timeout for s in samples
        )

    def _means(self, specs, payloads) -> Dict[table4.Key, float]:
        samples: Dict[table4.Key, List[float]] = {}
        for cell, payload in zip(specs, payloads):
            key = (cell.tree, cell.oracle, cell.component)
            samples.setdefault(key, []).extend(payload["samples"])
        return {key: _mean(values) for key, values in samples.items()}

    def outcomes(self, specs, payloads) -> Dict[str, float]:
        return {
            "result.sim_mttr_s": _mean([s for p in payloads for s in p["samples"]]),
            "result.sim_mttr_rel_err": table4.worst_relative_error(
                self._means(specs, payloads)
            ),
        }

    def checks(self, specs, payloads) -> List[Check]:
        return table4.shape_checks(self._means(specs, payloads))


@dataclasses.dataclass(frozen=True)
class SteadySpec:
    """A healthy station under open-loop Poisson traffic."""

    seed: int
    session_rate: float = 50.0
    steps: int = 40
    step_s: float = 5.0


class TrafficSteady(Workload):
    name = "traffic-steady"
    work_unit = "request resolved"
    why = (
        "Healthy tree-V station under 50 sessions/s: codec full-parse, bus "
        "routing and reply matching do the work and recovery is idle, so a "
        "codec or bus gain shows here and a recovery-engine change must not."
    )

    def plan(self, seed: int) -> List[SteadySpec]:
        return [SteadySpec(seed=campaign_seed(seed, "traffic-steady", "V"))]

    def _attach(self, spec: SteadySpec) -> Tuple[MercuryStation, WorkloadPlane]:
        station = MercuryStation(tree=tree_v(), seed=spec.seed)
        station.boot()
        plane = WorkloadPlane(station, WorkloadSpec(session_rate=spec.session_rate))
        return station, plane

    def warm(self, specs: Sequence[SteadySpec]) -> None:
        station, plane = self._attach(specs[0])
        plane.run(1.0)

    def run_pass(self, specs, timed, ledger) -> List[Optional[Payload]]:
        # One slice per 5-simulated-second step, not per cell: the single
        # cell is ~3.5 s of host time, too long for one calibration bracket.
        (spec,) = specs
        station, plane = self._attach(spec)
        if ledger is not None:
            ledger.note(station)
        plane.start()
        for _ in range(spec.steps):
            timed(lambda: station.run_for(spec.step_s))

        def close() -> Payload:
            plane.stop()
            plane.drain()
            return plane.finalize().to_payload()

        return [timed(close)]

    def work(self, specs, payloads) -> float:
        return float(_requests_resolved(payloads[0]))

    def cell_ok(self, spec, payload: Payload) -> bool:
        # A healthy station serves everything it is offered.
        return payload["requests_failed"] == 0 and payload["requests_ok"] > 0

    def outcomes(self, specs, payloads) -> Dict[str, float]:
        return _traffic_outcomes(payloads)

    def checks(self, specs, payloads) -> List[Check]:
        return _traffic_checks(self.name, payloads[0])


class TrafficFaulted(Workload):
    name = "traffic-faulted"
    work_unit = "request resolved"
    why = (
        "Trees III, V x classic/restart/microreboot x crash/hang under 20 "
        "sessions/s: timeout ladder, retries, blame, strategy plan/verify, "
        "session store; a happy-path gain that costs the loss path shows."
    )

    def plan(self, seed: int) -> List[CampaignCell]:
        return [
            CampaignCell(
                kind="workload",
                tree=label,
                seed=campaign_seed(seed, "workload", strategy, kind, label),
                trials=2,
                strategy=strategy,
                failure_kind=kind,
                request_rate=20.0,
            )
            for label in ("III", "V")
            for strategy in ("", "restart", "microreboot")
            for kind in ("crash", "hang")
        ]

    def warm(self, specs: Sequence[CampaignCell]) -> None:
        shapes = {(cell.tree, cell.strategy): cell for cell in specs}
        for cell in shapes.values():
            execute_cell(dataclasses.replace(cell, trials=0))

    def run_cell(self, spec: CampaignCell) -> Payload:
        return execute_cell(spec)

    def work(self, specs, payloads) -> float:
        return float(sum(_requests_resolved(p["effects"]) for p in payloads))

    def outcomes(self, specs, payloads) -> Dict[str, float]:
        out = _traffic_outcomes([p["effects"] for p in payloads])
        out["result.sim_mttr_s"] = _mean([s for p in payloads for s in p["mttr_samples"]])
        return out

    def checks(self, specs, payloads) -> List[Check]:
        found: List[Check] = []
        for cell, payload in zip(specs, payloads):
            tag = "%s.%s-%s-%s" % (
                self.name, cell.tree, cell.strategy or "classic", cell.failure_kind
            )
            found += _traffic_checks(tag, payload["effects"])
        return found


class FleetWaves(Workload):
    name = "fleet-waves"
    work_unit = "simulated station-second"
    why = (
        "Four 32-station fleets, two under correlated fault waves: the only "
        "workload that runs the epoch barrier, the template store and dozens "
        "of kernels at once; it convicts or acquits the barrier."
    )
    shards = 4

    def plan(self, seed: int) -> List[FleetSpec]:
        return [
            FleetSpec(
                size=32,
                horizon_s=240.0,
                drain_s=60.0,
                seed=campaign_seed(seed, "fleet", "V", 32, interval, index),
                wave_interval_s=interval,
                wave_drop=drop,
            )
            for index, (interval, drop) in enumerate(
                [(120.0, 0.2), (120.0, 0.2), (0.0, 0.0), (0.0, 0.0)]
            )
        ]

    def warm(self, specs: Sequence[FleetSpec]) -> None:
        tiny = dataclasses.replace(specs[0], size=1, horizon_s=1.0, drain_s=1.0)
        run_fleet_cell(tiny, shards=1, jobs=1)

    def run_cell(self, spec: FleetSpec) -> Payload:
        return run_fleet_cell(spec, shards=self.shards, jobs=1).to_payload()

    def work(self, specs, payloads) -> float:
        return float(sum(s.size * (s.horizon_s + s.drain_s) for s in specs))

    def events(self, payloads, station_events: int) -> int:
        # The payload's own count also covers the ground-segment kernel.
        return sum(FleetResult.from_payload(p).events_executed for p in payloads)

    def cell_ok(self, spec, payload: Payload) -> bool:
        return FleetResult.from_payload(payload).ok

    def outcomes(self, specs, payloads) -> Dict[str, float]:
        fleets = [FleetResult.from_payload(p) for p in payloads]
        return {
            "result.sim_mttr_s": _mean([s for f in fleets for s in f.mttr_samples]),
            "result.sim_availability": _mean([f.availability for f in fleets]),
        }


class AvailabilityMonth(Workload):
    name = "availability-month"
    work_unit = "simulated station-day"
    why = (
        "Trees I-V, five simulated days each, twice: abstract supervisor, "
        "steady-state injectors and trace-disabled sinks, no FD/REC bus pings "
        "-- the second copy of the episode machine, measured apart."
    )
    days = 5.0

    def plan(self, seed: int) -> List[CampaignCell]:
        return [
            CampaignCell(
                kind="availability",
                tree=label,
                seed=campaign_seed(seed, "availability", label, replica),
                horizon_s=self.days * 86400.0,
            )
            for label in ("I", "II", "III", "IV", "V")
            for replica in range(2)
        ]

    def warm(self, specs: Sequence[CampaignCell]) -> None:
        shapes = {cell.tree: cell for cell in specs}
        for cell in shapes.values():
            execute_cell(dataclasses.replace(cell, horizon_s=1.0))

    def run_cell(self, spec: CampaignCell) -> Payload:
        return execute_cell(spec)

    def work(self, specs, payloads) -> float:
        return self.days * len(payloads)

    def cell_ok(self, spec, payload: Payload) -> bool:
        return 0.0 < payload["availability"] <= 1.0 and payload["outages"] > 0

    def outcomes(self, specs, payloads) -> Dict[str, float]:
        downtime = sum(p["total_downtime_s"] for p in payloads)
        outages = sum(p["outages"] for p in payloads)
        return {
            "result.sim_mttr_s": downtime / outages,
            "result.sim_availability": _mean([p["availability"] for p in payloads]),
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        RecoveryMatrix(),
        TrafficSteady(),
        TrafficFaulted(),
        FleetWaves(),
        AvailabilityMonth(),
    )
}
