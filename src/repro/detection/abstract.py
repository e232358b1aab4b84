"""Collapsed FD+REC for long-horizon experiments.

Simulating every liveness ping costs ~10 events per component-second; a
one-month availability run would spend almost all its time routing pings
that detect nothing.  :class:`AbstractSupervisor` collapses the detector and
recoverer into one object that:

* observes process deaths directly from the process manager, but declares
  them only after a *sampled* detection latency — ``U(0, ping_period) +
  reply_timeout`` — matching the full detector's distribution;
* feeds the same :class:`~repro.core.recovery_engine.RecoveryEngine`
  (episodes, escalation, budgets, strategies, oracle feedback, action
  serialisation) as the real REC — this module is only the lifecycle
  front end around it;
* filters the expected downtime of its own restarts, the way FD's
  suppression window does.

Because the engine and policy are shared with the full stack,
recovery-time distributions agree between the two supervisors (validated
by a dedicated test), so availability numbers from this fast path are
faithful.

**Precondition: no network faults.**  The abstract supervisor never routes
a ping, so it cannot observe message loss, delay spikes, partitions, or a
fail-slow (hung/zombie) component — it sees only process-manager lifecycle
transitions.  Its sampled detection latency is calibrated against the full
detector *on a healthy network*; under an active
:class:`~repro.transport.network.NetworkFaultModel` the two supervisors
diverge (the full detector takes misses, suspects partitions, and may
retract), so the parity guarantee is void.
:class:`~repro.mercury.station.MercuryStation` enforces this by refusing
``net_faults=True`` with ``supervisor="abstract"``; a dedicated test pins
both the refusal and the healthy-network parity.
"""

from __future__ import annotations

from typing import Optional, Sequence, TYPE_CHECKING

from repro.core.policy import RestartPolicy
from repro.core.procedures import ProcedureMap
from repro.core.recovery_engine import RecoveryEngine
from repro.core.recovery_strategies import StrategyMap
from repro.obs import events as ev
from repro.types import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.procmgr.manager import ProcessManager
    from repro.procmgr.process import SimProcess
    from repro.sim.kernel import Kernel


class AbstractSupervisor:
    """Sampled-latency detector in front of the shared recovery engine."""

    def __init__(
        self,
        kernel: "Kernel",
        manager: "ProcessManager",
        policy: RestartPolicy,
        monitored: Sequence[str],
        ping_period: SimTime = 1.0,
        reply_timeout: SimTime = 0.2,
        observation_window: SimTime = 3.0,
        restart_timeout: SimTime = 90.0,
        procedures: Optional[ProcedureMap] = None,
        strategies: Optional[StrategyMap] = None,
        session_store=None,
    ) -> None:
        self.kernel = kernel
        self.manager = manager
        self.policy = policy
        self.monitored = set(monitored)
        self.ping_period = ping_period
        self.reply_timeout = reply_timeout
        self.observation_window = observation_window
        #: The supervisor's own crash-only lifecycle (:meth:`restart`) is
        #: driven by whoever calls it (a :class:`SupervisorWatchdog` or a
        #: test); the engine is the same one REC runs.
        self.engine = RecoveryEngine(
            kernel,
            manager,
            policy,
            name="supervisor",
            observation_window=observation_window,
            restart_timeout=restart_timeout,
            procedures=procedures,
            strategies=strategies,
            session_store=session_store,
        )
        self.restart_log = self.engine.restart_log
        #: ``request_restart(cell_id, reason)``: the rejuvenation entry point.
        self.request_restart = self.engine.request_restart
        self._rng = kernel.rngs.stream("abstract_supervisor.detection")
        self.detections = 0
        #: The supervisor itself is a restartable node: ``crash``/``hang``
        #: take it down; a :class:`SupervisorWatchdog` (or a test) calls
        #: :meth:`restart`.  Counts restarts, and stamps pending
        #: detections so a dead incarnation's are dropped.
        self.restart_count = 0
        self.engine.start()
        manager.subscribe(self._on_lifecycle)

    # ------------------------------------------------------------------
    # crash-only lifecycle (the supervisor as a restartable node)
    # ------------------------------------------------------------------

    @property
    def responsive(self) -> bool:
        """Heartbeat view: does the supervisor still answer its watchdog?"""
        return self.engine.alive

    def crash(self) -> None:
        """The supervisor process dies: all in-flight plans are lost."""
        self.engine.stop()

    def hang(self) -> None:
        """The supervisor wedges: alive to the OS, dead to the system."""
        self.engine.stop()

    def restart(self) -> None:
        """Crash-only restart: rebuild the world view, trust nothing stale.

        The engine's fresh incarnation reconciles the policy, re-arms
        observation expiries and rebuilds the oracle (as a restarted REC
        does); then the monitored set is rescanned for components that
        died while the supervisor was down — their death events went
        unobserved — and each is declared after a fresh sampled latency.
        """
        self.restart_count += 1
        self.engine.new_incarnation()
        for name in sorted(self.monitored):
            process = self.manager.maybe_get(name)
            if process is not None and not process.is_running:
                self._schedule_declare(name)

    # ------------------------------------------------------------------
    # detection
    # ------------------------------------------------------------------

    def _schedule_declare(self, name: str) -> None:
        delay = self._rng.uniform(0.0, self.ping_period) + self.reply_timeout
        self.kernel.schedule_after(delay, self._declare, self.restart_count, name)

    def _on_lifecycle(self, process: "SimProcess", event: str) -> None:
        if not self.engine.alive:
            return  # a dead supervisor observes nothing
        name = process.name
        if event == "ready":
            self.engine.member_ready(name)
        elif event.startswith("down:") and name in self.monitored:
            # A member that completed its restart and then failed anew
            # (fresh fault or re-manifestation) is detected normally.
            if not self.engine.expects_down(name):
                self._schedule_declare(name)

    def _declare(self, incarnation: int, component: str) -> None:
        if not self.engine.alive or incarnation != self.restart_count:
            # A dead incarnation's pending detection; the restart rescan
            # re-declares anything genuinely still down.
            return
        if self.manager.get(component).is_running:
            return  # came back before we would have noticed
        if self.engine.expects_down(component):
            return  # still restarting as part of the in-flight batch
        self.detections += 1
        self.kernel.trace.emit("supervisor", ev.DETECTION, component=component)
        self.engine.report_failure(component)


class SupervisorWatchdog:
    """The lightweight tier above the supervisor (recursive restartability).

    A plain heartbeat: every ``period`` it checks the supervisor's
    ``responsive`` flag; after ``grace`` seconds of silence it restarts
    the supervisor crash-only via :meth:`AbstractSupervisor.restart`.
    Deliberately trivial — the paper's recursion has to bottom out in
    something simple enough to trust (the hardware watchdog analogue).
    """

    def __init__(
        self,
        kernel: "Kernel",
        supervisor: AbstractSupervisor,
        period: SimTime = 1.0,
        grace: SimTime = 2.0,
    ) -> None:
        if period <= 0.0:
            raise ValueError(f"period must be positive: {period!r}")
        self.kernel = kernel
        self.supervisor = supervisor
        self.period = period
        self.grace = grace
        self.restarts = 0
        self._misses = 0
        self._armed = True
        kernel.schedule_after(period, self._tick)

    def stop(self) -> None:
        self._armed = False

    def _tick(self) -> None:
        if not self._armed:
            return
        if self.supervisor.responsive:
            self._misses = 0
        else:
            self._misses += 1
            if self._misses * self.period >= self.grace:
                self._misses = 0
                self.restarts += 1
                self.supervisor.restart()
        self.kernel.schedule_after(self.period, self._tick)
