"""Fault injectors.

:class:`FaultInjector` is the bookkeeping heart: it injects failures into
processes, tracks which failures are *active*, and — crucially — enforces
cure semantics.  When a failed component finishes restarting, the injector
checks whether the restart batch covered the failure's minimal cure set; if
not, the failure **re-manifests** shortly after the restart completes.  That
is exactly the observable behaviour the paper describes for a guess-too-low
oracle mistake: "the failure still manifests ... even after the restart
completes" (§3.3), which is what lets the oracle escalate up the tree.

:class:`SteadyStateInjector` layers random arrivals on top for long-run
availability experiments: each component draws times-to-failure from its
lifetime distribution (Table 1 MTTFs) and its cure set from a
:class:`~repro.faults.curability.CurabilityProfile`.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.faults.curability import CurabilityProfile
from repro.faults.distributions import LifetimeDistribution
from repro.faults.failure import FAIL_SLOW_KINDS, FailureDescriptor
from repro.obs import events as ev
from repro.procmgr.manager import ProcessManager
from repro.procmgr.process import SimProcess
from repro.types import Severity, SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel


class FaultInjector:
    """Injects failures and enforces minimal-cure-set semantics."""

    def __init__(
        self,
        kernel: "Kernel",
        manager: ProcessManager,
        remanifest_delay: SimTime = 0.05,
    ) -> None:
        self.kernel = kernel
        self.manager = manager
        #: Delay between an insufficient restart completing and the failure
        #: re-manifesting (small but nonzero: the component comes up, touches
        #: the still-broken shared state, and dies again).
        self.remanifest_delay = remanifest_delay
        self._active: Dict[int, FailureDescriptor] = {}
        #: All failures ever injected, for post-hoc analysis.
        self.history: List[FailureDescriptor] = []
        self._cure_listeners: List[Callable[[FailureDescriptor, SimTime], None]] = []
        #: Per-station id sequence.  Descriptors default to a process-global
        #: counter, which would make traced failure ids depend on how many
        #: stations ran earlier in the same interpreter; renumbering at
        #: injection keeps every run's ids (and its JSONL trace) a pure
        #: function of the seed.
        self._ids = itertools.count(1)
        manager.subscribe(self._on_lifecycle)

    # ------------------------------------------------------------------
    # injection API
    # ------------------------------------------------------------------

    def inject(self, descriptor: FailureDescriptor) -> FailureDescriptor:
        """Fail the descriptor's manifest component now, with cure tracking.

        Returns the (renumbered) descriptor actually injected — callers
        tracking the failure must use the return value, not their argument.
        """
        descriptor = dataclasses.replace(descriptor, failure_id=next(self._ids))
        self._active[descriptor.failure_id] = descriptor
        self.history.append(descriptor)
        self.kernel.trace.emit(
            "faults",
            ev.FAILURE_INJECTED,
            severity=Severity.WARNING,
            component=descriptor.manifest_component,
            failure_id=descriptor.failure_id,
            cure_set=tuple(sorted(descriptor.cure_set)),
            failure_kind=descriptor.kind,
        )
        if descriptor.kind in FAIL_SLOW_KINDS:
            # Fail-slow: the process stays up, degraded.  Cure semantics
            # are unchanged — only a restart covering the cure set (which
            # wipes the degraded mode) cures the failure.
            self.manager.degrade(
                descriptor.manifest_component, descriptor.kind, descriptor
            )
        else:
            self.manager.fail(descriptor.manifest_component, descriptor)
        return descriptor

    def inject_simple(self, component: str, kind: str = "crash") -> FailureDescriptor:
        """Inject a failure cured by restarting only ``component``."""
        return self.inject(FailureDescriptor.simple(component, self.kernel.now, kind))

    def inject_joint(
        self, component: str, cure_set, kind: str = "joint"
    ) -> FailureDescriptor:
        """Inject a failure requiring a joint restart of ``cure_set``."""
        return self.inject(
            FailureDescriptor.joint(component, frozenset(cure_set), self.kernel.now, kind)
        )

    # ------------------------------------------------------------------
    # queries and subscriptions
    # ------------------------------------------------------------------

    @property
    def active_failures(self) -> List[FailureDescriptor]:
        """Failures injected but not yet cured."""
        return list(self._active.values())

    def is_active(self, failure_id: int) -> bool:
        """Whether the given failure is still uncured."""
        return failure_id in self._active

    def on_cure(self, listener: Callable[[FailureDescriptor, SimTime], None]) -> None:
        """Register ``listener(descriptor, cured_at)`` for every cure."""
        self._cure_listeners.append(listener)

    # ------------------------------------------------------------------
    # cure semantics
    # ------------------------------------------------------------------

    def _on_lifecycle(self, process: SimProcess, event: str) -> None:
        if event != "ready":
            return
        # Several failures can be active on one component (e.g. an aging
        # failure landing while a joint-curable one is still open); judge
        # each independently against the restart batch.
        for descriptor in self._find_active(process.name):
            if descriptor.is_cured_by(process.last_batch):
                self._cure(descriptor)
            else:
                self.kernel.schedule_after(
                    self.remanifest_delay, self._remanifest, descriptor.failure_id
                )

    def _find_active(self, component: str) -> List[FailureDescriptor]:
        return [
            descriptor
            for descriptor in self._active.values()
            if descriptor.manifest_component == component
        ]

    def _cure(self, descriptor: FailureDescriptor) -> None:
        del self._active[descriptor.failure_id]
        self.kernel.trace.emit(
            "faults",
            ev.FAILURE_CURED,
            component=descriptor.manifest_component,
            failure_id=descriptor.failure_id,
            failure_kind=descriptor.kind,
        )
        for listener in list(self._cure_listeners):
            listener(descriptor, self.kernel.now)

    def _remanifest(self, failure_id: int) -> None:
        descriptor = self._active.get(failure_id)
        if descriptor is None:
            return  # cured by a covering restart in the meantime
        process = self.manager.get(descriptor.manifest_component)
        if not process.is_running:
            return  # already down again (e.g. killed by an escalated restart)
        self.kernel.trace.emit(
            "faults",
            ev.FAILURE_REMANIFESTED,
            severity=Severity.WARNING,
            component=descriptor.manifest_component,
            failure_id=descriptor.failure_id,
        )
        if descriptor.kind in FAIL_SLOW_KINDS:
            self.manager.degrade(
                descriptor.manifest_component, descriptor.kind, descriptor
            )
        else:
            self.manager.fail(descriptor.manifest_component, descriptor)


class SteadyStateInjector:
    """Random failure arrivals for long-run availability experiments.

    Each configured component draws a time-to-failure from its lifetime
    distribution whenever it (re)enters RUNNING; if it is still running when
    the timer expires, a failure is drawn from the curability profile and
    injected.  This makes the *configured* MTTF the mean up-time between
    failures, matching how Table 1's operator estimates were produced.

    :attr:`arrivals` counts, per component, the timers that injected: a
    fire on a stale epoch or on a component that is not running is not an
    arrival.  Every ``ready`` redraws a memoryless lifetime, so exposure
    divided by arrivals estimates the configured MTTF even while other
    mechanisms (resync coupling, aging) kill the component as well.
    """

    def __init__(
        self,
        injector: FaultInjector,
        lifetimes: Dict[str, LifetimeDistribution],
        profile: Optional[CurabilityProfile] = None,
    ) -> None:
        self.injector = injector
        self.kernel = injector.kernel
        self.manager = injector.manager
        self.lifetimes = dict(lifetimes)
        self.profile = profile or self._simple_profile()
        self._enabled = True
        self._epoch: Dict[str, int] = {name: 0 for name in self.lifetimes}
        self.arrivals: Dict[str, int] = {name: 0 for name in self.lifetimes}
        self.manager.subscribe(self._on_lifecycle)
        # Arm timers for components already running at attach time.
        for name in self.lifetimes:
            process = self.manager.maybe_get(name)
            if process is not None and process.is_running:
                self._arm(name)

    def _simple_profile(self) -> CurabilityProfile:
        profile = CurabilityProfile()
        for name in self.lifetimes:
            profile.set_simple(name)
        return profile

    def stop(self) -> None:
        """Disable further arrivals (armed timers become no-ops)."""
        self._enabled = False

    def rearm(self) -> None:
        """Redraw every running component's time-to-failure from its
        stream's *current* state.

        Snapshot/fork hook: a restored station's armed timers were drawn
        while the template warmed under the shape's boot seed, so every
        cell of the shape would share its first arrivals.  Rearming after
        the seed rebase replaces them with draws from the cell's own
        streams; the superseded timers die by epoch check when they fire.
        """
        for name in self.lifetimes:
            process = self.manager.maybe_get(name)
            if process is not None and process.is_running:
                self._arm(name)

    def _on_lifecycle(self, process: SimProcess, event: str) -> None:
        if event == "ready" and process.name in self.lifetimes:
            self._arm(process.name)
        elif event.startswith("down:") and process.name in self._epoch:
            # Invalidate any armed timer: the lifetime draw restarts on the
            # next ready transition.
            self._epoch[process.name] += 1

    def _arm(self, name: str) -> None:
        if not self._enabled:
            return
        self._epoch[name] += 1
        epoch = self._epoch[name]
        rng = self.kernel.rngs.stream(f"steady.{name}")
        delay = self.lifetimes[name].sample(rng)
        self.kernel.schedule_after(delay, self._fire, name, epoch)

    def _fire(self, name: str, epoch: int) -> None:
        if not self._enabled or self._epoch.get(name) != epoch:
            return  # the component went down and back up since this was armed
        process = self.manager.get(name)
        if not process.is_running:
            return
        self.arrivals[name] += 1
        rng = self.kernel.rngs.stream(f"steady.{name}.cure")
        descriptor = self.profile.draw(name, rng, self.kernel.now)
        self.injector.inject(descriptor)
