"""Collapsed FD+REC: the front end of the steady-state availability cell.

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

**Scope: §8's availability cell only.**  The supervisor has no lifecycle
of its own — it is never crashed, hung or restarted, so its engine runs
one incarnation for the whole cell.  Supervisor faults, chaos scenarios
and the workload plane run on the full FD+REC stack.

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
        #: The same engine REC runs, started once and never stopped.
        self.engine = RecoveryEngine(
            kernel,
            manager,
            policy,
            name="supervisor",
            observation_window=observation_window,
            strategies=strategies,
            session_store=session_store,
        )
        self.restart_log = self.engine.restart_log
        #: ``request_restart(cell_id, reason)``: the rejuvenation entry point.
        self.request_restart = self.engine.request_restart
        self._rng = kernel.rngs.stream("abstract_supervisor.detection")
        self.detections = 0
        self.engine.start()
        manager.subscribe(self._on_lifecycle)

    # ------------------------------------------------------------------
    # detection
    # ------------------------------------------------------------------

    def _on_lifecycle(self, process: "SimProcess", event: str) -> None:
        name = process.name
        self.engine.on_lifecycle(name, event)
        if event.startswith("down:") and name in self.monitored:
            # A member that completed its restart and then failed anew
            # (fresh fault or re-manifestation) is detected normally; one
            # the engine is re-kicking is not.
            if not self.engine.expects_down(name):
                delay = self._rng.uniform(0.0, self.ping_period) + self.reply_timeout
                self.kernel.schedule_after(delay, self._declare, name)

    def _declare(self, component: str) -> None:
        if self.manager.get(component).is_running:
            return  # came back before we would have noticed
        if self.engine.expects_down(component):
            return  # still restarting as part of the in-flight batch
        self.detections += 1
        self.kernel.trace.emit("supervisor", ev.DETECTION, component=component)
        self.engine.report_failure(component)
