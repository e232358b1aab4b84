"""Fleet-scale campaigns: MTTR, availability, and session loss vs fleet size.

The paper measures one Mercury station; ROADMAP item 1 asks what it never
could: how a *fleet* of stations behaves — hundreds of independent
recursively-restartable units under both independent (Table 1) failure
arrivals and **correlated cross-station faults** from a shared ground
segment.  This module builds that experiment on
:class:`~repro.sim.fleet.FleetKernel`:

* Every station is a full Mercury station (own tree, own fault injectors,
  own FD/REC supervisor, own network fabric) wrapped in a
  :class:`StationShell`.  Station ``i`` is seeded with
  ``derive_seed(fleet_seed, "station:i")`` — a pure function of the fleet
  seed and the id, so fleet composition, shard count, and worker layout
  cannot perturb any station's streams.
* The :class:`GroundShell` coordinator draws correlated *fault waves* on
  its own streams: every ``wave_interval_s`` (exponential), one station
  group takes a simultaneous shared-segment fault (component failure
  and/or an uplink degrade through the PR 5 network fabric).  Stations
  report recoveries back — bidirectional cross-shard traffic.
* Stations restore from the warmed-station snapshot template
  (:mod:`repro.experiments.snapshot`), shared across worker processes via
  the pickle-once :mod:`~repro.experiments.template_store` — per-station
  setup is a fork + RNG rebase, amortizing one boot over the fleet.

Per-station payloads carry an event-stream digest, so the bit-identity
contract (shard counts, serial vs parallel) is checkable byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.invariants import InvariantChecker
from repro.errors import ExperimentError
from repro.experiments.metrics import UptimeTracker
from repro.experiments.snapshot import (
    publish_template,
    station_shape,
    warm_template,
    warmed_station,
)
from repro.mercury.config import PAPER_CONFIG, StationConfig
from repro.mercury.station import MercuryStation
from repro.obs import events as ev
from repro.obs.sinks import MetricsSink, Sink
from repro.sim.fleet import GROUND_ID, FleetKernel, FleetMessage, FleetShell
from repro.sim.kernel import Kernel
from repro.sim.rng import derive_seed
from repro.types import Severity
from repro.workload.effects import merge_effects_payloads
from repro.workload.generator import WorkloadSpec
from repro.workload.plane import WorkloadPlane


# ----------------------------------------------------------------------
# spec
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FleetSpec:
    """Pure, picklable identity of one fleet run (sharding excluded).

    ``shards`` and parallelism are *execution* choices — they are not part
    of the spec's result identity (bit-identical by the epoch-barrier
    argument) but ride along so factories can be shipped to workers whole.
    """

    tree: str = "V"
    size: int = 64
    horizon_s: float = 600.0
    seed: int = 0
    #: Minimum one-way station↔ground WAN latency — the fleet lookahead.
    ground_latency: float = 0.5
    #: Post-horizon drain: new failure arrivals and waves stand down at the
    #: horizon, then the fleet runs this much longer so in-flight
    #: recoveries complete before invariants are judged (the chaos engine's
    #: drain-the-wreckage idiom, §5.1).
    drain_s: float = 120.0
    #: Ground-segment grouping: station ``i`` belongs to group ``i % groups``
    #: (interleaved, so a wave always spans shards).
    groups: int = 4
    #: Mean seconds between correlated fault waves; 0 disables waves
    #: (independent-failures baseline).
    wave_interval_s: float = 0.0
    #: Component a wave fails; "auto" resolves to fedrcom (or fedr on
    #: split trees) — the WAN-facing component a shared segment would take
    #: down.
    wave_component: str = "auto"
    wave_kind: str = "crash"
    #: Optional wave-coupled uplink degrade (drop probability applied to
    #: each hit station's fabric for ``wave_degrade_s``); 0 disables.
    wave_drop: float = 0.0
    wave_degrade_s: float = 20.0
    oracle: str = "perfect"
    #: Per-station user-traffic load (sessions/s); 0 runs no workload
    #: plane.  The plane attaches after restore (like the sinks), so the
    #: station shape — and therefore the shared boot template — is the
    #: same with or without traffic.
    request_rate: float = 0.0


def resolve_wave_component(spec: FleetSpec, components: Sequence[str]) -> str:
    """The concrete component a wave hits on this tree."""
    if spec.wave_component != "auto":
        return spec.wave_component
    return "fedrcom" if "fedrcom" in components else "fedr"


# ----------------------------------------------------------------------
# event-stream digest (bit-identity witness)
# ----------------------------------------------------------------------


class DigestSink(Sink):
    """Folds every emitted record into a SHA-256 — the cheap byte-identity
    witness carried in each member's result payload.  ``repr`` of floats
    is exact, so two digests agree iff the event streams agree."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.records = 0

    def accept(self, record) -> None:
        data = record.data
        line = "%r|%s|%s|%s" % (
            record.time,
            record.source,
            record.kind,
            sorted(data.items()) if data else "",
        )
        self._hash.update(line.encode("utf-8"))
        self.records += 1

    def hexdigest(self) -> str:
        """Digest of everything accepted so far."""
        return self._hash.hexdigest()


# ----------------------------------------------------------------------
# session-loss accounting
# ----------------------------------------------------------------------


class SessionChainMonitor:
    """Counts satellite-session losses from sustained chain outages.

    §5.2's "not all downtime is the same": an outage of the session chain
    (pointing loop or radio path) longer than
    ``config.link_break_outage_s`` drops carrier lock and forfeits the
    session; shorter blips don't.  This monitor applies that rule to the
    live lifecycle stream without needing a pass schedule.
    """

    def __init__(self, station: MercuryStation) -> None:
        self.kernel = station.kernel
        self.threshold = station.config.link_break_outage_s
        self.chain = [
            name
            for name in station.station_components
            if name in station.config.session_chain
        ]
        self.manager = station.manager
        self.sessions_lost = 0
        self._down_since: Optional[float] = None
        station.manager.subscribe(self._on_lifecycle)

    def _chain_up(self) -> bool:
        return all(self.manager.get(name).is_running for name in self.chain)

    def _on_lifecycle(self, process, event: str) -> None:
        if process.name not in self.chain:
            return
        now = self.kernel.now
        if self._chain_up():
            if self._down_since is not None:
                if now - self._down_since > self.threshold:
                    self.sessions_lost += 1
                self._down_since = None
        elif self._down_since is None:
            self._down_since = now

    def finalize(self) -> None:
        """Account an outage still open at the horizon."""
        if self._down_since is not None:
            if self.kernel.now - self._down_since > self.threshold:
                self.sessions_lost += 1
            self._down_since = None


# ----------------------------------------------------------------------
# station shell
# ----------------------------------------------------------------------


def _fleet_shape(spec: FleetSpec, config: StationConfig) -> str:
    from repro.mercury.trees import TREE_BUILDERS

    tree = TREE_BUILDERS[spec.tree]()
    return station_shape(
        "fleet",
        tree,
        config,
        oracle=spec.oracle,
        supervisor="full",
        net_faults=True,
        steady=True,
    )


class _StationBuild:
    """Picklable ``build``/``warm`` pair for the fleet station shape.

    A callable object (not a closure) for the same reason as the station's
    own ``_WorkFn``: it must cross pickle boundaries with the factory.
    """

    __slots__ = ("spec", "config")

    def __init__(self, spec: FleetSpec, config: StationConfig) -> None:
        self.spec = spec
        self.config = config

    def build(self, boot_seed: int) -> MercuryStation:
        from repro.mercury.trees import TREE_BUILDERS

        return MercuryStation(
            tree=TREE_BUILDERS[self.spec.tree](),
            config=self.config,
            seed=boot_seed,
            oracle=self.spec.oracle,
            supervisor="full",
            steady_faults=True,
            solution_period=600.0,
            trace_capacity=10_000,
            net_faults=True,
        )

    def warm(self, station: MercuryStation) -> None:
        # Fleet horizons are long and per-record retention is pure cost;
        # sinks (metrics, invariants, digest) observe even while disabled.
        station.kernel.trace.enabled = False
        station.boot(settle=5.0)


def station_seed(fleet_seed: int, station_id: int) -> int:
    """Station ``i``'s seed — pure function of (fleet seed, id)."""
    return derive_seed(fleet_seed, f"station:{station_id}")


class StationShell(FleetShell):
    """One Mercury station as a fleet member."""

    def __init__(
        self,
        shell_id: int,
        spec: FleetSpec,
        config: StationConfig,
        snapshot: bool = True,
    ) -> None:
        builder = _StationBuild(spec, config)
        station = warmed_station(
            _fleet_shape(spec, config),
            builder.build,
            builder.warm,
            station_seed(spec.seed, shell_id),
            snapshot,
        )
        super().__init__(shell_id, station.kernel, spec.ground_latency)
        self.spec = spec
        self.station = station
        # The template's armed lifetimes were drawn under the boot seed;
        # redraw them under this station's own streams (availability idiom).
        assert station.steady is not None
        station.steady.rearm()
        self.metrics = MetricsSink()
        self.checker = InvariantChecker(station.tree)
        self.digest = DigestSink()
        station.kernel.trace.add_sink(self.metrics)
        station.kernel.trace.add_sink(self.checker)
        station.kernel.trace.add_sink(self.digest)
        self.uptime = UptimeTracker(station.manager, station.station_components)
        self.sessions = SessionChainMonitor(station)
        #: Optional user-traffic plane: per-station open-loop workload on
        #: the station's own (rebased) RNG streams, so offered traffic is
        #: a pure function of the station seed — shard layouts cannot
        #: perturb it.
        self.workload: Optional[WorkloadPlane] = None
        if spec.request_rate > 0:
            self.workload = WorkloadPlane(
                station, WorkloadSpec(session_rate=spec.request_rate)
            )
            self.workload.start()
        self._events_at_start = station.kernel.events_executed
        station.injector.on_cure(self._on_cure)
        # Arrivals stop at the horizon; the drain epochs after it only
        # finish what is already in flight.
        station.kernel.schedule_at(
            self.kernel.now + spec.horizon_s, self._enter_drain
        )

    def _enter_drain(self) -> None:
        assert self.station.steady is not None
        self.station.steady.stop()
        if self.workload is not None:
            # New arrivals stand down with the failure arrivals; chains
            # already in flight resolve during the drain epochs.
            self.workload.stop()
        if self.station.network.faults is not None:
            self.station.network.faults.clear()

    # -- cross-fleet traffic -------------------------------------------

    def _on_cure(self, descriptor, cured_at: float) -> None:
        self.post(
            GROUND_ID,
            "cured",
            (descriptor.manifest_component, descriptor.failure_id),
        )

    def apply(self, message: FleetMessage) -> None:
        if message.kind == "inject":
            component, failure_kind = message.data
            self.station.kernel.trace.emit(
                "fleet",
                ev.FLEET_DIRECTIVE,
                severity=Severity.WARNING,
                directive="inject",
                src=message.src,
                component=component,
                failure_kind=failure_kind,
            )
            process = self.station.manager.maybe_get(component)
            if process is not None and process.is_running:
                self.station.injector.inject_simple(component, failure_kind)
            return
        if message.kind == "degrade":
            drop, duration = message.data
            self.station.kernel.trace.emit(
                "fleet",
                ev.FLEET_DIRECTIVE,
                severity=Severity.WARNING,
                directive="degrade",
                src=message.src,
                drop=drop,
                duration=duration,
            )
            faults = self.station.network.faults
            if faults is not None:
                faults.degrade(duration=duration, drop=drop)
            return
        raise ExperimentError(f"unknown fleet directive kind {message.kind!r}")

    # -- results --------------------------------------------------------

    def finalize(self) -> None:
        self.uptime.finalize()
        self.sessions.finalize()
        if self.workload is not None:
            self.workload.stop()
            self.workload.finalize()
        self.checker.finalize(self.kernel.now)
        self.metrics.close()

    def result(self) -> Dict[str, Any]:
        mttr_samples = [
            episode.total_recovery
            for episode in self.checker.tracker.episodes
            if episode.kind == "failure"
            and episode.is_complete
            and episode.total_recovery is not None
        ]
        return {
            "station": self.shell_id,
            "availability": self.uptime.system_availability(),
            "outages": self.uptime.system_outages,
            "downtime_s": self.uptime.system_downtime,
            "mttr_samples": mttr_samples,
            "cured": self.metrics.count(ev.FAILURE_CURED),
            "injected": self.metrics.count(ev.FAILURE_INJECTED),
            "directives": self.metrics.count(ev.FLEET_DIRECTIVE),
            "sessions_lost": self.sessions.sessions_lost,
            "user_effects": (
                self.workload.effects.to_payload()
                if self.workload is not None
                else None
            ),
            "violations": self.checker.violation_payloads(),
            "events_executed": self.kernel.events_executed - self._events_at_start,
            "digest": self.digest.hexdigest(),
        }


# ----------------------------------------------------------------------
# ground-segment coordinator
# ----------------------------------------------------------------------


class GroundShell(FleetShell):
    """The shared ground segment: correlated fault waves + status intake."""

    def __init__(
        self, spec: FleetSpec, components: Sequence[str], start_time: float = 0.0
    ) -> None:
        # Starts at the fleet origin (the stations' warm point) so wave
        # times share the stations' clock frame.
        kernel = Kernel(
            seed=derive_seed(spec.seed, "ground-segment"),
            start_time=start_time,
            trace_capacity=10_000,
        )
        super().__init__(GROUND_ID, kernel, spec.ground_latency)
        self.spec = spec
        self.wave_component = resolve_wave_component(spec, components)
        self.waves = 0
        self.reports = 0
        #: No waves fire past the horizon — the drain only settles debris.
        self._end = kernel.now + spec.horizon_s
        self.digest = DigestSink()
        kernel.trace.enabled = False
        kernel.trace.add_sink(self.digest)
        if spec.wave_interval_s > 0:
            self._arm_wave()

    def _arm_wave(self) -> None:
        rng = self.kernel.rngs.stream("ground.waves")
        delay = rng.expovariate(1.0 / self.spec.wave_interval_s)
        if self.kernel.now + delay <= self._end:
            self.kernel.schedule_after(delay, self._wave)

    def _wave(self) -> None:
        spec = self.spec
        group = self.kernel.rngs.stream("ground.target").randrange(spec.groups)
        members = [i for i in range(spec.size) if i % spec.groups == group]
        self.waves += 1
        self.kernel.trace.emit(
            "ground",
            ev.GROUND_WAVE,
            severity=Severity.WARNING,
            wave_id=self.waves,
            group=group,
            stations=len(members),
            component=self.wave_component,
            failure_kind=spec.wave_kind,
        )
        for station_id in members:
            self.post(station_id, "inject", (self.wave_component, spec.wave_kind))
            if spec.wave_drop > 0:
                self.post(
                    station_id, "degrade", (spec.wave_drop, spec.wave_degrade_s)
                )
        self._arm_wave()

    def apply(self, message: FleetMessage) -> None:
        if message.kind == "cured":
            component, failure_id = message.data
            self.reports += 1
            self.kernel.trace.emit(
                "ground",
                ev.FLEET_STATUS,
                station=message.src,
                component=component,
                failure_id=failure_id,
            )
            return
        raise ExperimentError(f"unknown ground message kind {message.kind!r}")

    def result(self) -> Dict[str, Any]:
        return {
            "waves": self.waves,
            "reports": self.reports,
            "wave_component": self.wave_component,
            "events_executed": self.kernel.events_executed,
            "digest": self.digest.hexdigest(),
        }


# ----------------------------------------------------------------------
# factory (crosses the pickle boundary whole)
# ----------------------------------------------------------------------


class _ShardFactory:
    """Builds a shard's station shells in whatever process runs them.

    Carries the pickle-once template blob table: installing it before the
    first ``warmed_station`` call means a worker's first restore unpickles
    the parent's warmed image instead of re-booting.
    """

    __slots__ = ("spec", "config", "blobs", "snapshot")

    def __init__(
        self,
        spec: FleetSpec,
        config: StationConfig,
        blobs: Optional[Dict[str, bytes]] = None,
        snapshot: bool = True,
    ) -> None:
        self.spec = spec
        self.config = config
        self.blobs = blobs
        self.snapshot = snapshot

    def __call__(self, ids: Tuple[int, ...]) -> List[FleetShell]:
        if self.blobs:
            from repro.experiments.template_store import STORE

            STORE.install(self.blobs)
        return [
            StationShell(shell_id, self.spec, self.config, self.snapshot)
            for shell_id in ids
        ]


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


@dataclass
class FleetResult:
    """One fleet cell's outcome: raw per-station payloads + aggregates."""

    tree_name: str
    size: int
    horizon_s: float
    wave_interval_s: float
    stations: List[Dict[str, Any]] = field(default_factory=list)
    ground: Dict[str, Any] = field(default_factory=dict)

    # -- aggregates ----------------------------------------------------

    @property
    def availability(self) -> float:
        """Fleet-mean station availability."""
        if not self.stations:
            return 1.0
        return sum(s["availability"] for s in self.stations) / len(self.stations)

    @property
    def mttr_samples(self) -> List[float]:
        """Every completed recovery episode across the fleet."""
        return [sample for s in self.stations for sample in s["mttr_samples"]]

    @property
    def mean_mttr(self) -> Optional[float]:
        samples = self.mttr_samples
        return sum(samples) / len(samples) if samples else None

    @property
    def sessions_lost(self) -> int:
        return sum(s["sessions_lost"] for s in self.stations)

    @property
    def outages(self) -> int:
        return sum(s["outages"] for s in self.stations)

    @property
    def user_effects(self) -> Optional[Dict[str, Any]]:
        """Fleet-merged user-effects ledger (None without a workload)."""
        ledgers = [
            s["user_effects"]
            for s in self.stations
            if s.get("user_effects") is not None
        ]
        if not ledgers:
            return None
        return merge_effects_payloads(ledgers)

    @property
    def events_executed(self) -> int:
        return sum(s["events_executed"] for s in self.stations) + self.ground.get(
            "events_executed", 0
        )

    @property
    def violations(self) -> List[Dict[str, Any]]:
        return [v for s in self.stations for v in s["violations"]]

    @property
    def ok(self) -> bool:
        """Whether every station's invariants held."""
        return not self.violations

    # -- (de)serialization ---------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @staticmethod
    def from_payload(payload: Dict[str, Any]) -> "FleetResult":
        return FleetResult(**payload)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def _env_int(name: str, default: int) -> int:
    try:
        return max(1, int(os.environ.get(name, str(default))))
    except ValueError:
        return default


def fleet_jobs(default: int = 1) -> int:
    """Worker-process count for in-cell shard fan-out.

    An environment switch (``REPRO_FLEET_JOBS``) rather than a cell field:
    cell specs must stay pure result identities, and parallelism is
    bit-identical by construction, so it must never enter a cache key.
    """
    return _env_int("REPRO_FLEET_JOBS", default)


def fleet_shards(default: int = 1) -> int:
    """Shard count for fleet cells (``REPRO_FLEET_SHARDS``); same
    execution-knob status as :func:`fleet_jobs` — never in a cache key."""
    return _env_int("REPRO_FLEET_SHARDS", default)


def run_fleet_cell(
    spec: FleetSpec,
    config: StationConfig = PAPER_CONFIG,
    shards: int = 1,
    jobs: Optional[int] = None,
    snapshot: bool = True,
    share_templates: bool = True,
) -> FleetResult:
    """Run one fleet to its horizon; bit-identical for any ``shards``/``jobs``.

    ``jobs`` > 1 (default: ``REPRO_FLEET_JOBS``) fans one worker process
    per shard; the epoch barrier is ``spec.ground_latency``.  With
    ``share_templates`` the parent warms and publishes the station
    template before fan-out, so each worker unpickles instead of booting.
    """
    from repro.mercury.trees import TREE_BUILDERS

    if spec.size < 1:
        raise ExperimentError(f"fleet size must be >= 1, got {spec.size!r}")
    tree = TREE_BUILDERS[spec.tree]()
    jobs = fleet_jobs() if jobs is None else max(1, jobs)
    parallel = jobs > 1 and shards > 1
    builder = _StationBuild(spec, config)
    shape = _fleet_shape(spec, config)
    # The fleet's common time origin is the stations' warm point: every
    # member (restored or freshly booted under the shape's boot seed)
    # starts exactly there, and the epoch schedule anchors on it.  The
    # template is warmed here even for snapshot-off differential runs —
    # those stations still boot fresh; only the clock is read.
    start = warm_template(shape, builder.build, builder.warm).kernel.now
    blobs: Optional[Dict[str, bytes]] = None
    if parallel and share_templates and snapshot:
        from repro.experiments.template_store import STORE

        publish_template(shape, builder.build, builder.warm)
        blobs = {shape: STORE.blobs()[shape]}
    factory = _ShardFactory(spec, config, blobs, snapshot)
    ground = GroundShell(spec, tree.components, start)
    fleet = FleetKernel(
        epoch=spec.ground_latency,
        factory=factory,
        shell_ids=range(spec.size),
        shards=shards,
        coordinator=ground,
        start=start,
    )
    results = fleet.run(spec.horizon_s + spec.drain_s, parallel=parallel)
    stations = [results[i] for i in range(spec.size)]
    return FleetResult(
        tree_name=tree.name,
        size=spec.size,
        horizon_s=spec.horizon_s,
        wave_interval_s=spec.wave_interval_s,
        stations=stations,
        ground=results[GROUND_ID],
    )
