"""MercuryStation: the fully assembled simulated ground station.

The station wires every substrate together for a chosen restart tree:

* one simulated process per component (the set depends on whether the tree
  predates or postdates the §4.2 fedrcom split), with startup-work functions
  from the calibrated :class:`~repro.mercury.config.StationConfig`;
* the bus broker in ``mbus``; ses/str/rtu and the radio-proxy component(s)
  as bus-attached behaviors over shared simulated hardware;
* the correlated-failure mechanisms: ses/str resync coupling and
  fedr→pbcom disconnect aging;
* a supervisor — either the full FD + REC process pair (bus pings, control
  channel, mutual watchdogs) or the collapsed
  :class:`~repro.detection.abstract.AbstractSupervisor` for long runs;
* a :class:`~repro.faults.injector.FaultInjector` for experiments.

Typical use::

    station = MercuryStation(tree=tree_v(), seed=42, oracle="perfect")
    station.boot()
    failure = station.injector.inject_simple("rtu")
    station.run_until_recovered(failure)
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from repro.bus.broker import BusBroker
from repro.core.oracle import (
    FaultyOracle,
    LearningOracle,
    NaiveOracle,
    Oracle,
    PerfectOracle,
)
from repro.core.policy import RestartPolicy
from repro.core.recoverer import RecoveryModule
from repro.core.recovery_strategies import StrategyMap
from repro.core.tree import RestartTree
from repro.detection.abstract import AbstractSupervisor
from repro.detection.detector import FailureDetector
from repro.errors import ExperimentError
from repro.faults.correlation import DisconnectAging, ResyncCoupling
from repro.faults.injector import FaultInjector, SteadyStateInjector
from repro.faults.distributions import Exponential
from repro.faults.store_faults import StoreUnavailableError
from repro.mercury.components import (
    FedrBehavior,
    FedrcomBehavior,
    PbcomBehavior,
    RtuBehavior,
    SesBehavior,
    StrBehavior,
)
from repro.mercury.config import PAPER_CONFIG, StationConfig
from repro.mercury.hardware import GroundStationHardware
from repro.mercury.session_store import SessionStore
from repro.mercury.trees import tree_v, uses_split_components
from repro.procmgr.manager import ProcessManager
from repro.procmgr.process import ProcessSpec, StartupContext
from repro.sim.kernel import Kernel
from repro.transport.network import Network, NetworkFaultModel

BUS_ADDRESS = "mbus:7000"
PBCOM_ADDRESS = "pbcom:9000"
REC_CTL_ADDRESS = "rec:7100"

OracleSpec = Union[str, Oracle]


class _BehaviorFactory:
    """Builds a named component's behavior by calling back into the station.

    A callable object instead of the obvious closure: process specs live as
    long as the station, and a snapshot restore (structural fork) must
    re-point the factory at the *copied* station — which the copy machinery
    does for instance attributes but never for closure cells.
    """

    __slots__ = ("station", "component")

    def __init__(self, station: "MercuryStation", component: str) -> None:
        self.station = station
        self.component = component

    def __call__(self, process):
        return self.station._make_behavior(self.component, process)


class _WorkFn:
    """Startup-work function for one component.

    A callable object for the same snapshot-restore reason as
    :class:`_BehaviorFactory`: it consults the station's session store at
    start time, so it must follow the station through a structural
    fork instead of capturing it in a closure cell.
    """

    __slots__ = ("station", "timing", "sigma")

    def __init__(self, station: "MercuryStation", name: str) -> None:
        self.station = station
        self.timing = station.config.timing_for(name)
        self.sigma = station.config.work_noise_sigma

    def __call__(self, context: StartupContext) -> float:
        timing, sigma = self.timing, self.sigma
        noise = max(0.0, context.rng.gauss(1.0, sigma)) if sigma > 0 else 1.0
        total = timing.work * noise
        store = self.station.session_store
        name = context.process.name
        if timing.resync_peer and timing.resync_peer not in context.batch:
            # The peer-noise draw always happens, so the RNG stream stays
            # identical whether or not the penalty is waived below.
            peer_noise = (
                max(0.0, context.rng.gauss(1.0, sigma)) if sigma > 0 else 1.0
            )
            has_session = False
            if store is not None and context.hint == "micro":
                try:
                    has_session = store.has_session(name)
                except StoreUnavailableError as exc:
                    # The store died between the plan and this start: the
                    # component burns the retry ladder, then pays the full
                    # cold resync anyway — honest extra startup latency.
                    total += exc.waited
            if not has_session:
                total += timing.lone_penalty * peer_noise
        if store is not None and context.hint == "replay":
            try:
                if store.has_checkpoint(name):
                    # Checkpoint restore + bounded log replay instead of
                    # the cold path: pay only the configured fraction.
                    total *= self.station.replay_work_fraction
            except StoreUnavailableError as exc:
                total += exc.waited  # ladder burned; cold startup follows
        return total


class MercuryStation:
    """A ready-to-run simulated Mercury ground station."""

    def __init__(
        self,
        tree: Optional[RestartTree] = None,
        config: StationConfig = PAPER_CONFIG,
        seed: int = 0,
        oracle: OracleSpec = "perfect",
        oracle_error_rate: float = 0.3,
        oracle_too_high_rate: float = 0.0,
        supervisor: str = "full",
        steady_faults: bool = False,
        solution_fn: Optional[Callable] = None,
        solution_period: float = 2.0,
        trace_capacity: Optional[int] = None,
        net_faults: bool = False,
        strategy: Optional[str] = None,
        strategies: Optional[StrategyMap] = None,
        replay_work_fraction: float = 0.35,
    ) -> None:
        """Assemble the station.

        Parameters
        ----------
        tree:
            The restart tree (default: the final tree V).
        oracle:
            ``"perfect"``, ``"naive"``, ``"learning"``, ``"faulty"``
            (guess-too-low wrapper around perfect, with
            ``oracle_error_rate``), or any :class:`Oracle` instance.
        supervisor:
            ``"full"`` for the FD+REC process pair, ``"abstract"`` for the
            collapsed fast-path supervisor, ``"none"`` for experiments that
            drive recovery by hand.
        strategy / strategies:
            Recovery-strategy selection (see
            :mod:`repro.core.recovery_strategies`).  ``strategy`` names a
            registry entry used as the map default; ``strategies`` passes a
            full :class:`StrategyMap`.  Either one selects the strategies
            and the store, nothing else: a crash-only
            :class:`~repro.mercury.session_store.SessionStore` is wired
            into ses/str/fedr/pbcom and the supervisor resolves a strategy
            per restart action.  Both ``None`` (the default) is the classic
            restart-only station, with no store and the oracle's strategy
            hint unread.  The supervision plane is the same either way:
            a restarted REC rebuilds crash-only and FD lifts its stale
            suppression.
        steady_faults:
            Arm the Table 1 steady-state failure arrivals (availability
            experiments).
        net_faults:
            Attach a :class:`~repro.transport.network.NetworkFaultModel` to
            the fabric (inert until a scenario degrades or partitions a
            link).  Incompatible with the abstract supervisor, which models
            detection as a latency distribution over direct process-death
            observations and would silently ignore every network fault.
        """
        self.config = config
        self.tree = tree if tree is not None else tree_v()
        self.split = uses_split_components(self.tree)
        self.kernel = Kernel(seed=seed, trace_capacity=trace_capacity)
        if net_faults and supervisor == "abstract":
            raise ExperimentError(
                "net_faults requires the full supervisor: the abstract "
                "supervisor's no-network-faults precondition (see "
                "repro.detection.abstract) would make lossy results a lie"
            )
        self.network = Network(
            self.kernel,
            faults=NetworkFaultModel(self.kernel) if net_faults else None,
        )
        if self.network.faults is not None:
            # FD and REC are co-located supervisor processes; their control
            # channel is host-local IPC, not station-LAN traffic, so the
            # wildcard default profile never touches it.  (A scenario that
            # *names* the fd~rec link still can.)
            self.network.faults.exempt_link("fd", "rec")
        self.hardware = GroundStationHardware(self.kernel)
        self.manager = ProcessManager(
            self.kernel,
            contention_coefficient=config.contention_coefficient,
            contention_mode=config.contention_mode,
        )
        self.station_components: List[str] = list(
            config.station_components(self.split)
        )
        expected = frozenset(self.station_components)
        if self.tree.components != expected:
            raise ExperimentError(
                f"tree {self.tree.name!r} covers {sorted(self.tree.components)}, "
                f"but the station runs {sorted(expected)}"
            )
        self._solution_fn = solution_fn
        #: ses's tracking-solution period; long-horizon availability runs
        #: raise it to avoid simulating millions of idle solution rounds.
        self._solution_period = solution_period
        if strategies is None and strategy is not None:
            strategies = StrategyMap(default=strategy)
        #: Per-cell/per-kind recovery-strategy selection, or None (classic).
        self.strategies = strategies
        #: The crash-only store — present exactly when strategies are, so a
        #: ``restart``-strategy sweep cell counts session losses against the
        #: same store the ``microreboot`` cell preserves.
        self.session_store: Optional[SessionStore] = (
            SessionStore() if strategies is not None else None
        )
        #: Fraction of the cold startup work a ``replay``-hinted restart
        #: pays when a checkpoint is available.  A station parameter (not a
        #: StationConfig field) because only strategy-enabled stations
        #: consult it — the classic config fingerprint stays unchanged.
        self.replay_work_fraction = replay_work_fraction
        self._build_processes()

        self.injector = FaultInjector(
            self.kernel, self.manager, remanifest_delay=config.remanifest_delay
        )
        self.resync_coupling = ResyncCoupling(
            self.injector,
            "ses",
            "str",
            induced_delay=config.resync_induced_delay,
            induce_probability=config.resync_induce_probability,
            session_store=self.session_store,
        )
        self.aging: Optional[DisconnectAging] = None
        if self.split:
            self.aging = DisconnectAging(
                self.injector,
                provoker="fedr",
                victim="pbcom",
                mean_failures_to_age_out=config.pbcom_aging_mean_disconnects,
                fail_delay=config.pbcom_aging_fail_delay,
            )

        self.oracle = self._build_oracle(oracle, oracle_error_rate, oracle_too_high_rate)
        self.policy = RestartPolicy(
            self.tree,
            self.oracle,
            budget=config.restart_budget,
            budget_window=config.restart_budget_window,
        )
        self.supervisor_kind = supervisor
        self.fd: Optional[FailureDetector] = None
        self.rec: Optional[RecoveryModule] = None
        self.abstract_supervisor: Optional[AbstractSupervisor] = None
        if supervisor == "full":
            self._build_full_supervisor()
        elif supervisor == "abstract":
            self.abstract_supervisor = AbstractSupervisor(
                self.kernel,
                self.manager,
                self.policy,
                monitored=self.station_components,
                ping_period=config.ping_period,
                reply_timeout=config.reply_timeout,
                observation_window=config.observation_window,
                strategies=self.strategies,
                session_store=self.session_store,
            )
        elif supervisor != "none":
            raise ExperimentError(f"unknown supervisor kind {supervisor!r}")

        self.steady: Optional[SteadyStateInjector] = None
        if steady_faults:
            lifetimes = {
                name: Exponential(config.mttf_seconds[name])
                for name in self.station_components
                if name in config.mttf_seconds
            }
            self.steady = SteadyStateInjector(self.injector, lifetimes)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _make_work_fn(self, name: str):
        return _WorkFn(self, name)

    def _make_behavior(self, name: str, process):
        """Construct the behavior for component ``name`` on ``process``.

        Called through :class:`_BehaviorFactory` on every (re)start, so it
        must wire against *this* station's network and hardware — never a
        captured one.
        """
        network = self.network
        hardware = self.hardware
        if name == "mbus":
            return BusBroker(process, network, BUS_ADDRESS)
        if name == "ses":
            return SesBehavior(
                process,
                network,
                BUS_ADDRESS,
                solution_period=self._solution_period,
                solution_fn=self._solution_fn,
                session_store=self.session_store,
            )
        if name == "str":
            return StrBehavior(
                process,
                network,
                hardware.antenna,
                BUS_ADDRESS,
                session_store=self.session_store,
            )
        if name == "rtu":
            proxy = "fedr" if self.split else "fedrcom"
            return RtuBehavior(process, network, BUS_ADDRESS, radio_proxy_name=proxy)
        if name == "fedrcom":
            return FedrcomBehavior(
                process, network, hardware.serial, hardware.radio, BUS_ADDRESS
            )
        if name == "fedr":
            return FedrBehavior(
                process,
                network,
                BUS_ADDRESS,
                PBCOM_ADDRESS,
                session_store=self.session_store,
            )
        if name == "pbcom":
            return PbcomBehavior(
                process,
                network,
                hardware.serial,
                hardware.radio,
                PBCOM_ADDRESS,
                session_store=self.session_store,
            )
        if name == "rec":
            self.rec = RecoveryModule(
                process,
                network,
                self.manager,
                self.policy,
                ctl_address=REC_CTL_ADDRESS,
                observation_window=self.config.observation_window,
                fd_ping_period=self.config.ping_period,
                fd_ping_timeout=self.config.reply_timeout,
                strategies=self.strategies,
                session_store=self.session_store,
            )
            return self.rec
        if name == "fd":
            self.fd = FailureDetector(
                process,
                self.network,
                self.manager,
                monitored=list(self.station_components),
                bus_address=BUS_ADDRESS,
                rec_ctl_address=REC_CTL_ADDRESS,
                ping_period=self.config.ping_period,
                reply_timeout=self.config.reply_timeout,
                misses_to_declare=self.config.misses_to_declare,
                timeout_policy=self.config.timeout_policy,
                adaptive_margin=self.config.adaptive_margin,
                probe_period=self.config.probe_period,
                probe_timeout=self.config.probe_timeout,
                probe_misses_to_declare=self.config.probe_misses_to_declare,
            )
            return self.fd
        raise ExperimentError(f"no behavior for component {name!r}")

    def _build_processes(self) -> None:
        for name in self.station_components:
            self.manager.spawn(
                ProcessSpec(
                    name=name,
                    startup_work=self._make_work_fn(name),
                    behavior_factory=_BehaviorFactory(self, name),
                    metadata={"mttf_s": self.config.mttf_seconds.get(name)},
                )
            )

    def _build_oracle(
        self, spec: OracleSpec, error_rate: float, too_high_rate: float = 0.0
    ) -> Oracle:
        if isinstance(spec, Oracle):
            return spec
        if spec == "perfect":
            return PerfectOracle(self.manager)
        if spec == "naive":
            return NaiveOracle()
        if spec == "learning":
            return LearningOracle()
        if spec == "faulty":
            return FaultyOracle(
                PerfectOracle(self.manager),
                error_rate,
                self.kernel.rngs.stream("oracle.faulty"),
                too_high_rate=too_high_rate,
            )
        raise ExperimentError(f"unknown oracle spec {spec!r}")

    def _build_full_supervisor(self) -> None:
        self.manager.spawn(
            ProcessSpec(
                "rec", self._make_work_fn("rec"), _BehaviorFactory(self, "rec")
            )
        )
        self.manager.spawn(
            ProcessSpec("fd", self._make_work_fn("fd"), _BehaviorFactory(self, "fd"))
        )

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def boot(self, settle: float = 3.0) -> None:
        """Start every process and run until the station is stable.

        "Stable" means all processes RUNNING plus ``settle`` seconds for
        attachments, handshakes, and the first ping round to complete.
        """
        self.manager.start_all()
        if not self.kernel.run_until(self.manager.all_running, self.kernel.now + 300.0):
            raise ExperimentError("station failed to boot within 300 s")
        self.kernel.run(until=self.kernel.now + settle)

    def run_for(self, seconds: float) -> None:
        """Advance the simulation by ``seconds``."""
        self.kernel.run(until=self.kernel.now + seconds)

    def all_station_running(self) -> bool:
        """Whether every *station* component (not FD/REC) is RUNNING."""
        return self.manager.all_running(self.station_components)

    def run_until_recovered(self, failure, timeout: float = 300.0) -> float:
        """Run until the restart action that cured ``failure`` completes.

        Returns the recovery time — the paper's Table 2/4 quantity: the
        interval from the SIGKILL until every component bounced by the
        *curing* restart is functionally ready again.  For a singleton
        restart that is the failed component's own readiness; for a group
        restart (tree I's whole-system reboot, tree IV's consolidated
        cells) it is the group's completion.  Failures injected by
        *unrelated* concurrent mechanisms (e.g. pbcom aging out during a
        fedr episode) are separate failures with their own episodes, as in
        the paper's per-failure accounting; long-run availability
        experiments capture their union instead.

        Raises on timeout, which under ``A_cure`` indicates a supervisor
        bug or an exhausted restart budget; no event later than the
        deadline is executed and the clock is left at it.
        """
        manifest = self.manager.get(failure.manifest_component)

        def recovered() -> bool:
            if self.injector.is_active(failure.failure_id):
                return False
            # The restart that cured it may have bounced a whole group.
            return self.manager.all_running(manifest.last_batch)

        if self.kernel.run_until(recovered, failure.injected_at + timeout):
            return self.kernel.now - failure.injected_at
        raise ExperimentError(
            f"failure {failure.failure_id} not recovered within {timeout}s "
            f"(active={self.injector.is_active(failure.failure_id)}, "
            f"running={sorted(self.manager.running())})"
        )

    def run_until_quiescent(self, timeout: float = 300.0, settle: float = 2.0) -> None:
        """Run until the station is fully up with no active failures.

        Used between experiment trials: correlated mechanisms (resync
        induction, pbcom aging) can queue follow-on failures after an
        episode's measured recovery, and injecting the next trial's failure
        before those drain would conflate episodes.  Quiescence must hold
        across ``settle`` seconds; no event later than the deadline is
        executed unless it falls inside a settle run that began before it.
        """
        deadline = self.kernel.now + timeout

        def quiescent() -> bool:
            return (
                self.all_station_running()
                and not self.injector.active_failures
                and self.supervisor_idle()
                # Open recovery episodes must finish observing: a failure
                # injected inside an episode's observation window would be
                # mistaken for "the restart did not cure" and escalate.
                and not self.policy.open_episodes()
            )

        while self.kernel.run_until(quiescent, deadline):
            self.kernel.run(until=self.kernel.now + settle)
            if quiescent():
                return
        raise ExperimentError(
            f"station not quiescent within {timeout}s: "
            f"running={sorted(self.manager.running())}, "
            f"active={[str(d) for d in self.injector.active_failures]}"
        )

    def supervisor_idle(self) -> bool:
        """Whether no restart action is currently in flight."""
        supervisor = self.rec or self.abstract_supervisor
        return supervisor is None or not supervisor.engine.busy

    @property
    def trace(self):
        """The kernel's structured trace."""
        return self.kernel.trace
