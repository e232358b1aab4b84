"""Pluggable recovery strategies: restart is just one way to push a button.

The paper optimises *which* subtree to restart; this module adds the
orthogonal axis — *how* a cell recovers (ROADMAP item 4).  The shape
follows splintercat's ``Recovery``/``RetryAll``/``RetrySpecific``/``Bisect``
hierarchy: an abstract :class:`RecoveryStrategy` with a three-phase
``plan → execute → verify`` contract, a registry keyed by name, and a
:class:`StrategyMap` that selects a strategy per cell and per failure kind.

The supervisor (REC or the abstract supervisor) drives the phases:

``plan(ctx)``
    Synchronous.  Returns a :class:`RecoveryPlan` naming the *ordered
    batch* (what the action claims — FD suppression, policy budgets, and
    the ``RestartOrder`` wire all cover it) and the *expected set* (which
    members actually bounce in this step and gate completion).

``execute(ctx, plan)``
    Kicks the plan's gate through the process manager with the plan's
    start hint.  The supervisor's inflight bookkeeping, watchdog, and
    ready-gating are shared by every strategy.

``verify(ctx, plan)``
    Called once every expected member has been ready.  ``None`` means the
    action is complete (``RESTART_COMPLETE`` fires, observation windows
    open); returning a follow-up :class:`RecoveryPlan` keeps the action
    open and runs another step — that is how :class:`BisectStrategy`
    probes group halves.  A plan may ask for a ``verify_delay`` so a
    not-actually-cured failure has time to re-manifest before the check.

Strategy instances are stateless and shared via the registry; all
per-action working state lives in the :class:`StrategyContext` the
supervisor creates per restart action.

The four shipped strategies:

``restart``
    The paper's mechanism, bit-identical to the pre-registry recoverer:
    a cold start of the cell's whole restart group, and verify is a no-op.

``microreboot``
    Partial restart ("Microreboot — A Technique for Cheap Recovery"):
    bounce only the observably unhealthy members of the cell, with the
    ``micro`` start hint.  Components that externalise their session
    state into the crash-only :class:`~repro.mercury.session_store
    .SessionStore` restore it on a micro start instead of re-running the
    expensive lone-start resync, and their peers keep their sessions.

``checkpoint-replay``
    Full-batch bounce with the ``replay`` hint (the CORBA
    checkpoint/message-logging report): components restore their last
    checkpoint from the session store and replay a bounded inbound
    message log instead of cold-booting, shrinking startup work by the
    configured replay fraction.  This is the paper's §7 recursive
    recovery for hard-state components: assign it to one cell through
    the :class:`StrategyMap`, and an uncured attempt escalates to the
    parent cell, whose ``restart`` is cold — "restart is just one example
    of a recovery procedure", and the cheapest cure is tried first.

``bisect``
    Binary-search group recovery for ambiguous multi-component failures
    (the fail-slow/zombie kinds): probe the half of the group containing
    the manifest component, wait out a verify delay, and — if the
    failure is still observable — widen to the manifest plus the other
    half, then the whole group.  The ordered batch is always the full
    group (suppression must cover every member the ladder may touch);
    only the probes shrink.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.procmgr.manager import ProcessManager


#: Start hints understood by session-store-aware components.
MICROREBOOT_HINT = "micro"
REPLAY_HINT = "replay"


@dataclass(frozen=True)
class RecoveryPlan:
    """One step of a recovery action.

    ``batch`` is what the action *claims*: FD suppression, the policy's
    ``restart_began``/``restart_completed`` calls, and the invariant
    checker's batch accounting all run against it.  ``expecting`` (when
    set) is the subset actually bounced by this step and the set whose
    readiness completes the step; ``None`` means the whole batch.
    """

    batch: FrozenSet[str]
    #: Trace label (the ``procedure`` field of ``RESTART_ORDERED``).
    label: str
    #: Start hint passed to the process manager (``cold``/``micro``/
    #: ``replay``).
    hint: str = "cold"
    expecting: Optional[FrozenSet[str]] = None
    #: Seconds to wait after the expected set is ready before ``verify``
    #: runs — long enough for an uncured failure to re-manifest.
    verify_delay: float = 0.0
    #: Set when a store-dependent strategy degraded to this plain-restart
    #: plan because the session store was unavailable; the supervisor
    #: emits ``STRATEGY_FALLBACK`` and the extra session loss is counted
    #: by the normal cold-restart accounting.
    fallback_from: Optional[str] = None
    #: Simulated seconds the planning probe burned on the store's
    #: timeout/retry ladder; the supervisor delays execution by this much
    #: so the degraded decision costs honest wall time.
    decision_delay: float = 0.0

    @property
    def gate(self) -> FrozenSet[str]:
        """The members whose readiness completes this step."""
        return self.batch if self.expecting is None else self.expecting


class StrategyContext:
    """Per-action working state handed to the strategy hooks."""

    __slots__ = (
        "manager",
        "components",
        "trigger",
        "session_store",
        "state",
        "planned_at",
        "gate_ready_at",
        "rounds",
    )

    def __init__(
        self,
        *,
        manager: "ProcessManager",
        components: FrozenSet[str],
        trigger: str,
        session_store=None,
    ) -> None:
        self.manager = manager
        self.components = components
        self.trigger = trigger
        self.session_store = session_store
        #: Strategy-private scratch (bisect keeps its probe ladder here).
        self.state: dict = {}
        self.planned_at: float = 0.0
        self.gate_ready_at: float = 0.0
        self.rounds: int = 0

    def unhealthy(self, names: FrozenSet[str]) -> FrozenSet[str]:
        """Members of ``names`` that are observably not healthy right now.

        Terminal (dead, not yet restarted) or degraded (hung/zombie) — the
        same signals the supervisor's own watchdog uses, no oracle access.
        """
        bad = set()
        for name in names:
            process = self.manager.maybe_get(name)
            if process is None:
                continue
            if process.state.is_terminal or process.degraded_mode is not None:
                bad.add(name)
        return frozenset(bad)


def _store_fallback(ctx: StrategyContext, strategy: str) -> Optional[RecoveryPlan]:
    """Plain-restart fallback when the session store is unavailable.

    Store-dependent strategies probe the store inside their ``plan`` —
    the probe burns the per-op timeout + retry/backoff ladder — and
    degrade to a full-batch cold restart rather than hanging on a dead
    store or silently losing the sessions a microreboot would have
    preserved.  The fallback is marked on the plan so supervisors trace
    it and the invariant checker can hold the discipline.
    """
    store = ctx.session_store
    if store is None:
        return None
    ok, waited = store.probe()
    if ok:
        return None
    ctx.state["store_fallback"] = strategy
    return RecoveryPlan(
        batch=ctx.components,
        label=f"{strategy}-fallback",
        hint="cold",
        fallback_from=strategy,
        decision_delay=waited,
    )


class RecoveryStrategy(ABC):
    """How a restart cell's button cures a failure."""

    #: Registry key and the ``strategy`` trace field.
    name: str = ""

    @abstractmethod
    def plan(self, ctx: StrategyContext) -> RecoveryPlan:
        """Decide the first step for this action (synchronous)."""

    def execute(self, ctx: StrategyContext, plan: RecoveryPlan) -> None:
        """Bounce the plan's gate with its start hint.  Every member of
        ``plan.gate`` reaches RUNNING again (the supervisor's watchdog
        re-kicks members that die mid-start)."""
        ctx.manager.restart(plan.gate, hint=plan.hint)

    def verify(self, ctx: StrategyContext, plan: RecoveryPlan) -> Optional[RecoveryPlan]:
        """Called when every expected member has been ready.

        ``None`` completes the action; a follow-up plan runs another step
        with the action (and FD suppression) still open.
        """
        return None


class RestartStrategy(RecoveryStrategy):
    """The paper's mechanism: cold-start the cell's whole restart group."""

    name = "restart"

    def plan(self, ctx: StrategyContext) -> RecoveryPlan:
        return RecoveryPlan(batch=ctx.components, label=self.name)


class MicrorebootStrategy(RecoveryStrategy):
    """Partial restart: bounce only the unhealthy members of the cell.

    Healthy group members keep running; the bounced members start with
    the ``micro`` hint so session-store-aware components restore their
    externalised session instead of re-running the lone-start resync.
    A proactive (rejuvenation) microreboot of an all-healthy cell falls
    back to the full batch — there is nothing to spare.

    The ordered batch is always the full cell (suppression and policy
    budgets must cover every member this action may touch), because a
    partial bounce carries a verify step: if the trigger re-manifests —
    a joint failure whose cure set includes a healthy-looking peer the
    micro bounce spared — the action widens once to the whole batch,
    the microreboot paper's "progressively larger reboot".  Without
    that fallback a joint failure is never cured at *any* escalation
    level, since every cell would again bounce only the manifest member.
    """

    name = "microreboot"

    #: Same re-manifestation window as the bisect ladder.
    VERIFY_DELAY = 0.25

    def plan(self, ctx: StrategyContext) -> RecoveryPlan:
        fallback = _store_fallback(ctx, self.name)
        if fallback is not None:
            return fallback
        partial = set(ctx.unhealthy(ctx.components))
        if ctx.trigger in ctx.components:
            partial.add(ctx.trigger)
        expecting = frozenset(partial)
        if not expecting or expecting == ctx.components:
            return RecoveryPlan(
                batch=ctx.components, label=self.name, hint=MICROREBOOT_HINT
            )
        ctx.state["trigger"] = (
            ctx.trigger if ctx.trigger in ctx.components else next(iter(expecting))
        )
        return RecoveryPlan(
            batch=ctx.components,
            label=self.name,
            hint=MICROREBOOT_HINT,
            expecting=expecting,
            verify_delay=self.VERIFY_DELAY,
        )

    def verify(self, ctx: StrategyContext, plan: RecoveryPlan) -> Optional[RecoveryPlan]:
        if plan.expecting is None or ctx.rounds > 0:
            return None  # already a full bounce, or the widening already ran
        trigger = ctx.state.get("trigger")
        if trigger is None or not ctx.unhealthy(frozenset((trigger,))):
            return None  # the partial bounce cured it
        # The failure re-manifested past the spared members: widen to the
        # whole batch.  The micro hint stays — externalised state lives in
        # the crash-only store, outside anything this bounce discards.
        return RecoveryPlan(batch=ctx.components, label=self.name, hint=MICROREBOOT_HINT)


class CheckpointReplayStrategy(RecoveryStrategy):
    """Full-batch bounce restoring checkpoints + replaying message logs."""

    name = "checkpoint-replay"

    def plan(self, ctx: StrategyContext) -> RecoveryPlan:
        fallback = _store_fallback(ctx, self.name)
        if fallback is not None:
            return fallback
        return RecoveryPlan(batch=ctx.components, label=self.name, hint=REPLAY_HINT)


class BisectStrategy(RecoveryStrategy):
    """Binary-search group recovery for ambiguous multi-component failures.

    Probe ladder over the cell's group ``C`` with manifest ``t``:

    1. the half of ``C`` containing ``t``;
    2. ``t`` plus the other half (a joint cure set needs its members in
       *one* batch, and the manifest is always in the cure set);
    3. all of ``C`` — the restart strategy's action, guaranteed to cure
       under the paper's A_cure assumption.

    After each probe the strategy waits ``verify_delay`` (longer than the
    injector's re-manifestation delay) and checks whether the manifest
    component is healthy again; a re-manifested failure widens the probe.
    For Mercury-sized groups (≤ 6 components) this three-step ladder *is*
    the bisection: split, complement, full set.
    """

    name = "bisect"

    #: Re-manifestation settles within the injector's ``remanifest_delay``
    #: (50 ms by default); a quarter second is comfortably past it.
    VERIFY_DELAY = 0.25

    def plan(self, ctx: StrategyContext) -> RecoveryPlan:
        ordered = sorted(ctx.components)
        trigger = ctx.trigger if ctx.trigger in ctx.components else ordered[0]
        if len(ordered) < 2:
            return RecoveryPlan(batch=ctx.components, label=self.name)
        mid = (len(ordered) + 1) // 2
        first, second = ordered[:mid], ordered[mid:]
        if trigger in second:
            first, second = second, first
        ladder = [
            frozenset(first),
            frozenset(second) | {trigger},
            ctx.components,
        ]
        ctx.state["ladder"] = ladder
        ctx.state["step"] = 0
        ctx.state["trigger"] = trigger
        return RecoveryPlan(
            batch=ctx.components,
            label=self.name,
            expecting=ladder[0],
            verify_delay=self.VERIFY_DELAY,
        )

    def verify(self, ctx: StrategyContext, plan: RecoveryPlan) -> Optional[RecoveryPlan]:
        ladder = ctx.state.get("ladder")
        if not ladder:
            return None  # degenerate single-component cell
        trigger = ctx.state["trigger"]
        if not ctx.unhealthy(frozenset((trigger,))):
            return None  # the probe cured it (no re-manifestation)
        step = ctx.state["step"] + 1
        if step >= len(ladder):
            # The full-group probe already ran and the failure still
            # re-manifested; complete and let the policy escalate.
            return None
        ctx.state["step"] = step
        return RecoveryPlan(
            batch=ctx.components,
            label=self.name,
            expecting=ladder[step],
            verify_delay=self.VERIFY_DELAY,
        )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, RecoveryStrategy] = {}


def register_strategy(strategy: RecoveryStrategy) -> RecoveryStrategy:
    """Add ``strategy`` to the registry under its ``name``."""
    if not strategy.name:
        raise ValueError("strategy must have a non-empty name")
    _REGISTRY[strategy.name] = strategy
    return strategy


def get_strategy(name: str) -> RecoveryStrategy:
    """Look up a registered strategy by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown recovery strategy {name!r} (known: {known})") from None


def strategy_names() -> Tuple[str, ...]:
    """All registered strategy names, sorted."""
    return tuple(sorted(_REGISTRY))


register_strategy(RestartStrategy())
register_strategy(MicrorebootStrategy())
register_strategy(CheckpointReplayStrategy())
register_strategy(BisectStrategy())


# ----------------------------------------------------------------------
# selection
# ----------------------------------------------------------------------


def observed_failure_kind(manager: "ProcessManager", component: str) -> str:
    """The failure kind the supervisor can observe at decision time.

    ``crash`` (process terminal), ``hang``/``zombie`` (degraded mode set by
    the injector — visible to REC the same way the watchdog sees process
    state), or ``unknown``.
    """
    process = manager.maybe_get(component)
    if process is None:
        return "unknown"
    if process.degraded_mode is not None:
        return str(process.degraded_mode)
    if process.state.is_terminal:
        return "crash"
    return "unknown"


class StrategyMap:
    """Per-cell / per-failure-kind strategy selection.

    The one place that decides what pushing a cell's button does.
    Resolution order (most specific wins):

    1. an override for ``(cell_id, failure_kind)``;
    2. an override for ``cell_id``;
    3. an override for ``failure_kind``;
    4. the map's explicit default, if one was given;
    5. the oracle's recommendation, if one was offered;
    6. ``restart``.

    An *explicit* default (e.g. a strategy-comparison sweep forcing
    ``microreboot`` everywhere) deliberately outranks the oracle hint so
    sweeps measure the strategy they name.
    """

    def __init__(
        self,
        default: Optional[str] = None,
        cells: Optional[Dict[str, str]] = None,
        kinds: Optional[Dict[str, str]] = None,
        cell_kinds: Optional[Dict[Tuple[str, str], str]] = None,
    ) -> None:
        for name in (
            list((cells or {}).values())
            + list((kinds or {}).values())
            + list((cell_kinds or {}).values())
            + ([default] if default else [])
        ):
            get_strategy(name)  # fail fast on typos
        self._default = default
        self._cells: Dict[str, str] = dict(cells or {})
        self._kinds: Dict[str, str] = dict(kinds or {})
        self._cell_kinds: Dict[Tuple[str, str], str] = dict(cell_kinds or {})

    def select(
        self,
        cell_id: str,
        failure_kind: str = "unknown",
        oracle_hint: Optional[str] = None,
    ) -> str:
        """The strategy name for pushing ``cell_id`` against ``failure_kind``."""
        hit = self._cell_kinds.get((cell_id, failure_kind))
        if hit is not None:
            return hit
        hit = self._cells.get(cell_id)
        if hit is not None:
            return hit
        hit = self._kinds.get(failure_kind)
        if hit is not None:
            return hit
        if self._default is not None:
            return self._default
        if oracle_hint is not None:
            return oracle_hint
        return RestartStrategy.name
