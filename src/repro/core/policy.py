"""The restart policy: episodes, escalation, and restart budgets.

The policy is the deterministic machinery around the oracle:

* it opens an *episode* per manifest component when FD reports a failure;
* it asks the oracle for the initial cell, then — if the failure is
  re-detected after the restart completes — escalates to the cell's parent,
  repeating "up to the very top, when the entire system is restarted"
  (§3.3);
* it enforces a restart budget ("the policy also keeps track of past
  restarts to prevent infinite restarts of hard failures", §2.2): more than
  ``budget`` restarts of the same component within ``budget_window`` seconds
  means the failure is not restart-curable, and the policy gives up,
  surfacing an operator escalation;
* it feeds outcomes back to the oracle so a learning oracle can estimate
  ``f_ci`` values (§7).

The policy is a pure decision structure driven by explicit notifications —
it schedules nothing itself.  The recoverer owns timers and execution.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, FrozenSet, List, Optional

from repro.core.oracle import Oracle
from repro.core.tree import RestartTree
from repro.types import SimTime


@dataclass(frozen=True)
class RestartDecision:
    """The policy's answer to a failure report."""

    #: "restart": push the cell's button; "ignore": expected/duplicate
    #: failure, do nothing; "give_up": budget exhausted, escalate to operator.
    action: str
    cell_id: Optional[str] = None
    components: FrozenSet[str] = frozenset()
    reason: str = ""
    #: The oracle's *original* recommendation for this episode.  Escalated
    #: decisions keep it, so observers (the chaos invariant checker) can
    #: assert that every ordered cell stays on the recommendation's
    #: path-to-root — the recoverer must never wander outside that subtree.
    oracle_cell: Optional[str] = None
    #: Recovery-strategy directive.  ``None`` lets the supervisor's
    #: :class:`~repro.core.recovery_strategies.StrategyMap` choose;
    #: escalated decisions pin ``"restart"`` — a cheap partial cure
    #: already failed once, so the climb up the tree uses the proven
    #: full-group mechanism ("try the cheapest cure first" composes with
    #: "escalate to what is known to work").
    strategy: Optional[str] = None


@dataclass
class Episode:
    """Recovery bookkeeping for one manifest component."""

    component: str
    opened_at: SimTime
    #: Cells tried so far, in order.
    attempts: List[str] = field(default_factory=list)
    #: "deciding" (report seen, restart not yet begun), "restarting"
    #: (restart in flight), "observing" (restart done, watching for
    #: re-detection), "closed", "abandoned".
    state: str = "deciding"
    last_completed_at: Optional[SimTime] = None
    #: The oracle's first recommendation (attempts[0] for non-budget-blocked
    #: episodes); escalations march up the tree from here.
    oracle_cell: Optional[str] = None

    @property
    def last_cell(self) -> Optional[str]:
        """The most recently tried cell, if any."""
        return self.attempts[-1] if self.attempts else None


class RestartPolicy:
    """Tree + oracle + budget → restart decisions."""

    def __init__(
        self,
        tree: RestartTree,
        oracle: Oracle,
        budget: int = 6,
        budget_window: SimTime = 300.0,
    ) -> None:
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.tree = tree
        self.oracle = oracle
        self.budget = budget
        self.budget_window = budget_window
        self._episodes: Dict[str, Episode] = {}
        self._restart_times: Dict[str, Deque[SimTime]] = {}
        #: Counters for reports.
        self.restarts_ordered = 0
        self.escalations = 0
        self.give_ups = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def episode_for(self, component: str) -> Optional[Episode]:
        """The open episode for ``component``, if any."""
        episode = self._episodes.get(component)
        if episode is not None and episode.state in ("closed", "abandoned"):
            return None
        return episode

    def open_episodes(self) -> List[Episode]:
        """Episodes not yet closed or abandoned (any state in between)."""
        return [
            episode
            for episode in self._episodes.values()
            if episode.state not in ("closed", "abandoned")
        ]

    # ------------------------------------------------------------------
    # decision entry points
    # ------------------------------------------------------------------

    def report_failure(self, component: str, now: SimTime) -> RestartDecision:
        """Decide what to do about a failure manifesting in ``component``."""
        if component not in self.tree.components:
            return RestartDecision("ignore", reason=f"{component!r} not in restart tree")
        strategy: Optional[str] = None
        episode = self.episode_for(component)
        if episode is None:
            episode = Episode(component=component, opened_at=now)
            self._episodes[component] = episode
            cell_id = self.oracle.recommend(self.tree, component)
            episode.oracle_cell = cell_id
        elif episode.state == "restarting":
            # A restart covering this component is already in flight; the
            # report is expected fallout of the restart itself.
            return RestartDecision("ignore", reason="restart in flight")
        elif episode.state == "deciding":
            return RestartDecision("ignore", reason="decision already pending")
        else:  # observing: the previous restart did not cure the failure
            assert episode.last_cell is not None
            self.oracle.notify_outcome(self.tree, component, episode.last_cell, cured=False)
            parent = self.tree.parent_of(episode.last_cell)
            if parent is None:
                # Even a full-system restart did not cure it.  Under A_cure
                # this cannot happen; if it does, the failure is hard.
                episode.state = "abandoned"
                self.give_ups += 1
                return RestartDecision(
                    "give_up", reason="failure persists after full-system restart"
                )
            self.escalations += 1
            cell_id = parent
            episode.state = "deciding"
            # The previous attempt's (possibly partial) cure failed; the
            # climb up the tree uses the proven full-group restart.
            strategy = "restart"

        if self._budget_exhausted(component, now):
            episode.state = "abandoned"
            self.give_ups += 1
            return RestartDecision(
                "give_up",
                reason=(
                    f"restart budget exhausted: {self.budget} restarts of "
                    f"{component!r} within {self.budget_window}s"
                ),
            )
        episode.attempts.append(cell_id)
        components = self.tree.components_restarted_by(cell_id)
        self.restarts_ordered += 1
        return RestartDecision(
            "restart",
            cell_id=cell_id,
            components=components,
            oracle_cell=episode.oracle_cell,
            strategy=strategy,
        )

    def restart_began(self, batch: FrozenSet[str], now: SimTime) -> None:
        """Notify that a restart of ``batch`` has begun executing.

        Only components with an *open episode* accrue budget: a component
        bounced as collateral of a group restart is not suspected of a hard
        failure.
        """
        for component in batch:
            episode = self.episode_for(component)
            if episode is not None:
                self._restart_times.setdefault(component, deque()).append(now)
                episode.state = "restarting"

    def restart_rekicked(self, component: str, now: SimTime) -> None:
        """Count a re-kick of ``component`` (it died before its restart
        completed) against its restart budget, episode or not: it failed
        on its own, not as collateral."""
        self._restart_times.setdefault(component, deque()).append(now)

    def restart_completed(self, batch: FrozenSet[str], now: SimTime) -> None:
        """Notify that every process in ``batch`` is RUNNING again."""
        for component in batch:
            episode = self.episode_for(component)
            if episode is not None and episode.state == "restarting":
                episode.state = "observing"
                episode.last_completed_at = now

    def observation_expired(self, component: str, now: SimTime) -> bool:
        """Close the episode if no re-detection arrived; returns closure.

        Call after the observation window has elapsed since the episode's
        restart completed.  A closed episode feeds a *cured* outcome to the
        oracle.
        """
        episode = self.episode_for(component)
        if episode is None or episode.state != "observing":
            return False
        episode.state = "closed"
        # The cure held: this was a transient, not a hard failure.  Clear
        # the component's budget so unrelated future failures start fresh —
        # the budget guards against one failure chain restarting forever,
        # not against a component that fails often (that is what the tree
        # transformations are for).
        self._restart_times.pop(component, None)
        if episode.last_cell is not None:
            self.oracle.notify_outcome(self.tree, component, episode.last_cell, cured=True)
        return True

    def reconcile_after_supervisor_restart(self, now: SimTime, is_running) -> tuple:
        """Crash-only reconciliation for a freshly restarted supervisor.

        The policy object is station-owned and survives the supervisor
        process, but episodes wedged in ``deciding``/``restarting`` refer
        to in-flight work the dead incarnation will never finish: left
        alone they eat every subsequent report as "restart in flight" — a
        recovery deadlock.  Reconcile against observable reality instead
        of trusting the pre-crash plan:

        * component running → the restart evidently completed; move the
          episode to ``observing`` so the normal expiry path closes it;
        * component down → drop the episode entirely so the detector's
          re-report opens a fresh one (the per-component restart budget
          lives outside episodes and still bounds crash loops).

        Returns ``(observing, dropped)`` component-name lists; the caller
        re-arms observation expiry for both the reconciled episodes and
        any that were already observing (whose timers died with the old
        process in the general, non-reused-instance case).
        """
        observing: List[str] = []
        dropped: List[str] = []
        for component, episode in list(self._episodes.items()):
            if episode.state not in ("deciding", "restarting"):
                continue
            if is_running(component):
                episode.state = "observing"
                episode.last_completed_at = now
                observing.append(component)
            else:
                del self._episodes[component]
                dropped.append(component)
        return observing, dropped

    # ------------------------------------------------------------------
    # budget
    # ------------------------------------------------------------------

    def _budget_exhausted(self, component: str, now: SimTime) -> bool:
        times = self._restart_times.get(component)
        if not times:
            return False
        while times and now - times[0] > self.budget_window:
            times.popleft()
        return len(times) >= self.budget

    def restarts_in_window(self, component: str, now: SimTime) -> int:
        """How many budget-counted restarts ``component`` has had recently."""
        times = self._restart_times.get(component)
        if not times:
            return 0
        return sum(1 for t in times if now - t <= self.budget_window)
