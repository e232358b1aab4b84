"""The recovery engine: REC's episode machine, once (paper §2.2, §3.3).

One small supervisor decides, restarts, observes and escalates.  The
engine owns that whole loop — the single restart action in flight, the
queue of reports behind it, plan→execute→verify driving of the strategy
registry, the re-kick watchdog, observation expiry, oracle checkpoints,
and the crash-only rebuild of a fresh incarnation — and knows nothing
about how failures reach it or how restarts are announced.  Two front
ends feed it :meth:`~RecoveryEngine.report_failure`,
:meth:`~RecoveryEngine.member_ready` and
:meth:`~RecoveryEngine.request_restart`:

* :class:`~repro.core.recoverer.RecoveryModule` — the FD↔REC control
  channel (reports arrive as XML, restarts are announced to FD);
* :class:`~repro.detection.abstract.AbstractSupervisor` — process-manager
  lifecycle events with a sampled detection latency.

Both get the same engine: one crash-only plane, one trace dialect, one
report filter (:meth:`~RecoveryEngine.expects_down`).

Hooks handed to the engine are bound methods, never closures: the warmed-
station snapshot deep-copies (and the template store pickles) the whole
station, and a closure would keep pointing at the template's kernel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, FrozenSet, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.core.oracle import LearningOracle
from repro.core.policy import RestartDecision, RestartPolicy
from repro.core.procedures import ProcedureMap
from repro.core.recovery_strategies import (
    RecoveryPlan,
    RecoveryStrategy,
    StrategyContext,
    StrategyMap,
    get_strategy,
    observed_failure_kind,
)
from repro.faults.store_faults import StoreError
from repro.obs import events as ev
from repro.types import Severity, SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.procmgr.manager import ProcessManager
    from repro.sim.kernel import Kernel


@dataclass
class _Action:
    """The one restart action in flight."""

    cell: str
    #: Everything the action covers (fixed for the action's lifetime).
    batch: FrozenSet[str]
    strategy: RecoveryStrategy
    ctx: StrategyContext
    #: The current step; its ``gate`` is what the step bounces and waits
    #: for — the batch for ``restart``, a subset for microreboot/bisect.
    plan: RecoveryPlan
    #: Gate members that completed their restart.  The step finishes when
    #: each has been ready *once* — gating on "all currently running"
    #: would deadlock if a member fails again while a slower one starts.
    ready: Set[str] = field(default_factory=set)


class RecoveryEngine:
    """Transport-agnostic decide → restart → observe → escalate loop."""

    def __init__(
        self,
        kernel: "Kernel",
        manager: "ProcessManager",
        policy: RestartPolicy,
        *,
        name: str,
        observation_window: SimTime,
        restart_timeout: SimTime,
        procedures: Optional[ProcedureMap] = None,
        strategies: Optional[StrategyMap] = None,
        session_store=None,
        announce: Optional[Callable[[str, Tuple[str, ...], str], None]] = None,
    ) -> None:
        self.kernel = kernel
        self.manager = manager
        self.policy = policy
        #: Trace source, and the ``supervisor=`` of ``supervisor_restarted``.
        self.name = name
        self.observation_window = observation_window
        #: A restart action not complete after this long has lost a member
        #: (e.g. killed mid-startup by a concurrent fault); the watchdog
        #: re-kicks terminal members so the action cannot wedge.
        self.restart_timeout = restart_timeout
        #: Per-cell recovery procedures (§7 recursive recovery).
        self.procedures = procedures or ProcedureMap()
        #: Per-cell/per-failure-kind strategies.  ``None`` is the classic
        #: restart-only configuration: the default strategy is forced, the
        #: oracle's hint is never consulted, and the trace stays
        #: bit-identical to the pre-registry recoverer.
        self.strategies = strategies
        #: Crash-only external store shared with the components.
        self.session_store = session_store
        #: ``announce(cell_id, sorted_batch, "begin" | "complete")``: REC
        #: tells FD which components not to report; the abstract
        #: supervisor has nobody to tell.
        self.announce = announce

        self.alive = False
        #: Incarnation counter.  Scheduled callbacks carry the generation
        #: that authored them; one from a pre-crash incarnation is fenced.
        self._generation = 0
        #: Monotonic across incarnations (deliberately never reset): a
        #: later step always has a later seq, so a superseded step's
        #: callbacks die on the seq check alone.
        self._action_seq = 0
        #: The action in flight (only the engine writes it).
        self.action: Optional[_Action] = None
        self._pending: Deque[str] = deque()
        #: Decisions taken, for tests and reports.
        self.restart_log: List[RestartDecision] = []

    def _emit(self, kind: str, severity: Severity = Severity.INFO, **data) -> None:
        trace = self.kernel.trace
        if trace.wants(kind):
            trace.emit(self.name, kind, severity, **data)

    # ------------------------------------------------------------------
    # incarnations
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin an incarnation that remembers nothing in flight."""
        self.alive = True
        self._generation += 1
        self.action = None
        self._pending.clear()
        # Idle again — and, from new_incarnation(), the policy reconciled
        # in this same event: waiters on either re-read their predicate.
        self.kernel.wake()

    def stop(self) -> None:
        """The supervisor died or wedged; scheduled callbacks go inert."""
        self.alive = False

    def new_incarnation(self) -> None:
        """Crash-only restart: trust nothing the dead incarnation left.

        Reconciles the station-owned policy against observable process
        state (episodes wedged ``restarting``/``deciding`` advance to
        ``observing`` or are dropped for the detector to re-report),
        re-arms every observation expiry under the new generation (the old
        incarnation's timers still fire and are dropped as stale), and
        rebuilds the learning oracle from the store, not process memory.
        """
        self.start()
        observing, dropped = self.policy.reconcile_after_supervisor_restart(
            self.kernel.now, self._is_running
        )
        self._emit(
            ev.SUPERVISOR_RESTARTED,
            severity=Severity.WARNING,
            supervisor=self.name,
            generation=self._generation,
            reconciled=len(observing),
            dropped=len(dropped),
        )
        for episode in self.policy.open_episodes():
            if episode.state == "observing":
                self._arm_observation(episode.component)
        self._rebuild_oracle()

    def _is_running(self, name: str) -> bool:
        process = self.manager.maybe_get(name)
        return process is not None and process.is_running

    def _rebuild_oracle(self) -> None:
        """Restore the learning oracle from the store (or start naive)."""
        oracle = self.policy.oracle
        if not isinstance(oracle, LearningOracle):
            return
        oracle.crash()  # it rode inside the supervisor: its memory is gone
        origin, entries = "naive", 0
        if self.session_store is not None:
            try:
                snapshot = self.session_store.load_snapshot("oracle")
            except StoreError:
                snapshot = None  # store down too: restart from naive
            if snapshot is not None:
                entries = oracle.restore_state(snapshot)
                origin = "store"
        self._emit(ev.ORACLE_REBUILT, origin=origin, entries=entries)

    def _persist_oracle(self) -> None:
        """Checkpoint the oracle's estimates so a crash cannot lose them."""
        oracle = self.policy.oracle
        if self.session_store is None or not isinstance(oracle, LearningOracle):
            return
        try:
            self.session_store.save_snapshot(
                "oracle", self.kernel.now, oracle.export_state()
            )
        except StoreError:
            pass  # outage: estimates learned since the last snapshot are at risk

    # ------------------------------------------------------------------
    # front-end inputs
    # ------------------------------------------------------------------

    @property
    def busy(self) -> bool:
        """Whether a restart action is in flight."""
        return self.action is not None

    def expects_down(self, name: str) -> bool:
        """Whether ``name`` being down is our own restart's fallout.

        True for a member of the in-flight batch not yet ready; a member
        that came back and failed anew is a real failure.  Both front ends
        filter their reports through this.
        """
        action = self.action
        return action is not None and name in action.batch and name not in action.ready

    def report_failure(self, component: str) -> None:
        """``component`` was declared failed: act now, or after the action
        in flight (one restart action at a time)."""
        if self.action is not None:
            self._pending.append(component)
        else:
            self._decide(component)

    def retract_report(self, component: str) -> None:
        """Drop a still-queued report; a restart in flight is past retracting."""
        if component in self._pending:
            self._pending = deque(n for n in self._pending if n != component)
            self._emit(ev.REPORT_RETRACTED, component=component)

    def member_ready(self, name: str) -> None:
        """A process finished starting; the step completes on its last one."""
        action = self.action
        if action is None or name not in action.plan.gate:
            return
        action.ready.add(name)
        if action.ready >= action.plan.gate:
            self._step_completed(action)

    def request_restart(self, cell_id: str, reason: str = "") -> bool:
        """Execute a proactive restart of ``cell_id`` (rejuvenation).

        Accepted only when the supervisor is alive and idle; proactive
        rounds are skipped under load, never queued.  The restart runs
        through the normal path, so suppression and action serialization
        apply and no false failure reports arise.
        """
        if not self.alive or self.action is not None:
            return False
        if not self.policy.tree.has_cell(cell_id):
            return False
        components = self.policy.tree.components_restarted_by(cell_id)
        if not self.manager.all_running(components):
            return False  # something is already down: leave it to recovery
        self._begin(cell_id, components, reason or "proactive")
        return True

    # ------------------------------------------------------------------
    # decide → plan → execute
    # ------------------------------------------------------------------

    def _decide(self, component: str) -> None:
        decision = self.policy.report_failure(component, self.kernel.now)
        self.kernel.wake()  # the episode may have been abandoned
        self.restart_log.append(decision)
        # An escalating re-report just fed the oracle a cured=False
        # outcome; checkpoint the estimates before acting on them.
        self._persist_oracle()
        if decision.action == "ignore":
            self._emit(ev.DECISION_IGNORE, component=component, reason=decision.reason)
            return
        if decision.action == "give_up":
            self._emit(
                ev.OPERATOR_ESCALATION,
                severity=Severity.ERROR,
                component=component,
                reason=decision.reason,
            )
            return
        assert decision.cell_id is not None
        self._begin(
            decision.cell_id, decision.components, component,
            oracle_cell=decision.oracle_cell, strategy=decision.strategy,
        )

    def _resolve_strategy(
        self, cell_id: str, trigger: str, failure_kind: str, requested: Optional[str]
    ) -> RecoveryStrategy:
        """Pick the strategy for this action.

        A ``requested`` name (the policy pinning ``restart`` on
        escalation) is a directive.  Otherwise the strategy map resolves
        per cell and observed failure kind, with the oracle's advisory
        hint as the lowest-priority input.  Without a map (the classic
        configuration) the default restart strategy is forced and the
        oracle is never consulted.
        """
        if requested is not None:
            return get_strategy(requested)
        if self.strategies is None:
            return get_strategy("restart")
        hint = self.policy.oracle.recommend_strategy(self.policy.tree, trigger)
        name = self.strategies.select(
            self.policy.tree, cell_id, failure_kind=failure_kind, oracle_hint=hint
        )
        return get_strategy(name)

    def _begin(
        self,
        cell_id: str,
        components: FrozenSet[str],
        trigger: str,
        oracle_cell: Optional[str] = None,
        strategy: Optional[str] = None,
    ) -> None:
        failure_kind = observed_failure_kind(self.manager, trigger)
        chosen = self._resolve_strategy(cell_id, trigger, failure_kind, strategy)
        ctx = StrategyContext(
            manager=self.manager,
            kernel=self.kernel,
            tree=self.policy.tree,
            procedures=self.procedures,
            cell_id=cell_id,
            components=components,
            trigger=trigger,
            failure_kind=failure_kind,
            session_store=self.session_store,
        )
        plan = chosen.plan(ctx)
        ctx.planned_at = self.kernel.now
        if plan.fallback_from is not None:
            # The store probe failed inside plan(): the stateful strategy
            # degrades to a plain cold restart, announced before the order
            # so the trace reads cause-then-effect.
            self._emit(
                ev.STRATEGY_FALLBACK,
                severity=Severity.WARNING,
                cell=cell_id,
                strategy=plan.fallback_from,
                fallback="restart",
                reason="store-unavailable",
                waited=round(plan.decision_delay, 9),
            )
        self.action = _Action(cell_id, plan.batch, chosen, ctx, plan)
        batch = tuple(sorted(plan.batch))
        order = {
            "cell": cell_id, "components": batch, "trigger": trigger,
            "procedure": plan.label,
        }
        if oracle_cell is not None:
            order["oracle_cell"] = oracle_cell
        if chosen.name != "restart":
            order["strategy"] = chosen.name
        self._emit(ev.RESTART_ORDERED, **order)
        if chosen.name != "restart":
            self._emit(
                ev.STRATEGY_PLANNED,
                cell=cell_id,
                strategy=chosen.name,
                batch=batch,
                expecting=tuple(sorted(plan.gate)),
                trigger=trigger,
            )
        if self.announce is not None:
            self.announce(cell_id, batch, "begin")
        self.policy.restart_began(plan.batch, self.kernel.now)
        self._arm_watchdog()
        if plan.decision_delay > 0.0:
            # The ladder's timeout cost of discovering the outage delays
            # the kill itself; suppression/budget are already in place, so
            # the wait cannot race a ready event.
            self.kernel.schedule_after(
                plan.decision_delay,
                self._execute_deferred,
                self._generation,
                self._action_seq,
            )
        else:
            chosen.execute(ctx, plan)

    def _arm_watchdog(self) -> None:
        """New step: supersede the last step's callbacks, arm this one's."""
        self._action_seq += 1
        self.kernel.schedule_after(
            self.restart_timeout,
            self._check_restart_progress,
            self._generation,
            self._action_seq,
        )

    # ------------------------------------------------------------------
    # scheduled plan callbacks (all fenced)
    # ------------------------------------------------------------------

    def _guarded(self, generation: int, action_seq: int) -> Optional[_Action]:
        """The action a scheduled plan callback may still act on, if any.

        Guard order is pinned: a seq mismatch (the step was superseded or
        finished) is silent; a seq match with a stale generation (the step
        is still the latest, but its author was restarted) is *fenced* —
        traced and discarded — so a pre-crash plan can never execute.
        """
        if not self.alive or action_seq != self._action_seq:
            return None
        if generation != self._generation:
            self._fence(generation)
            return None
        return self.action

    def _fence(self, stale_generation: int) -> None:
        """Trace a pre-crash plan callback being discarded."""
        self._emit(
            ev.PLAN_FENCED,
            severity=Severity.WARNING,
            generation=self._generation,
            stale_generation=stale_generation,
        )

    def _execute_deferred(self, generation: int, action_seq: int) -> None:
        """Run a plan whose decision was delayed by the store's ladder."""
        action = self._guarded(generation, action_seq)
        if action is not None:
            action.strategy.execute(action.ctx, action.plan)

    def _check_restart_progress(self, generation: int, action_seq: int) -> None:
        """Watchdog: re-kick gate members that died during the restart."""
        action = self._guarded(generation, action_seq)
        if action is None:
            return
        gate = action.plan.gate
        stragglers = tuple(
            name
            for name in sorted(gate - action.ready)
            if self.manager.get(name).state.is_terminal
        )
        if stragglers:
            # Cause before effect: the re-kick is traced before its starts.
            self._emit(ev.RESTART_REKICK, severity=Severity.WARNING, components=stragglers)
        for name in stragglers:
            self.manager.start(name, batch=gate)
        self.kernel.schedule_after(
            self.restart_timeout, self._check_restart_progress, generation, action_seq
        )

    def _step_completed(self, action: _Action) -> None:
        """Every gate member is ready: verify now or after a delay."""
        action.ctx.gate_ready_at = self.kernel.now
        if action.plan.verify_delay > 0.0:
            self.kernel.schedule_after(
                action.plan.verify_delay,
                self._verify_step,
                self._generation,
                self._action_seq,
            )
        else:
            self._verify_step(self._generation, self._action_seq)

    def _verify_step(self, generation: int, action_seq: int) -> None:
        action = self._guarded(generation, action_seq)
        if action is None:
            return
        follow = action.strategy.verify(action.ctx, action.plan)
        if follow is None:
            self._finish_restart(action)
            return
        # The strategy wants another step (bisect widening its probe):
        # the action — and FD suppression — stays open.
        action.ctx.rounds += 1
        action.plan = follow
        action.ready = set()
        self._emit(
            ev.BISECT_PROBE,
            cell=action.cell,
            components=tuple(sorted(follow.gate)),
            round=action.ctx.rounds,
        )
        self._arm_watchdog()
        action.strategy.execute(action.ctx, follow)

    # ------------------------------------------------------------------
    # completion, observation, drain
    # ------------------------------------------------------------------

    def _finish_restart(self, action: _Action) -> None:
        self.action = None
        self.kernel.wake()  # idle: supervisor_idle() waiters re-read
        self._action_seq += 1  # invalidate the progress watchdog
        now = self.kernel.now
        ctx = action.ctx
        if action.strategy.name != "restart":
            self._emit(
                ev.STRATEGY_VERIFIED,
                cell=action.cell,
                strategy=action.strategy.name,
                plan_s=0.0,
                execute_s=round(ctx.gate_ready_at - ctx.planned_at, 9),
                verify_s=round(now - ctx.gate_ready_at, 9),
                rounds=ctx.rounds,
            )
        batch = tuple(sorted(action.batch))
        self.policy.restart_completed(action.batch, now)
        self._emit(ev.RESTART_COMPLETE, cell=action.cell, components=batch)
        if self.announce is not None:
            self.announce(action.cell, batch, "complete")
        for component in batch:
            self._arm_observation(component)
        # Serve reports queued while the restart was in flight.  Reports
        # about components the restart just covered are stale (the
        # detector re-reports if the failure actually persists).
        pending, self._pending = self._pending, deque()
        for component in pending:
            if self._is_running(component):
                continue
            self.report_failure(component)

    def _arm_observation(self, component: str) -> None:
        self.kernel.schedule_after(
            self.observation_window,
            self._expire_observation,
            self._generation,
            component,
        )

    def _expire_observation(self, generation: int, component: str) -> None:
        if not self.alive:
            return
        if generation != self._generation:
            return  # a dead incarnation's timer; new_incarnation() re-armed
        if self.policy.observation_expired(component, self.kernel.now):
            self.kernel.wake()  # episode closed
            self._emit(ev.EPISODE_CLOSED, component=component)
            self._persist_oracle()
