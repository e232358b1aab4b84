"""Proactive restarts: software rejuvenation (paper §3, §4.4, §6).

"Recursive restartability improves this ratio ... by increasing MTTF with a
bounded form of software rejuvenation" (§3); "many such sites use 'rolling
reboots' to clean out stale state" (§6); and §4.4 observes that tree V's
"free" fedr restarts are prophylactic.  This module makes rejuvenation a
first-class, *scheduled* mechanism:

* restarts go through the supervisor's normal restart path (so the failure
  detector is told and does not raise false alarms, and actions serialize
  with reactive recovery);
* a pluggable *idle predicate* gates each round — §5.2's lesson that
  planned downtime is cheap and downtime during a pass is expensive
  becomes "only rejuvenate when no pass is imminent";
* rounds are skipped, never queued: if the system is busy recovering or
  the window is wrong, waiting for the next period is the safe choice.

The Mercury pay-off (exercised by the rejuvenation bench): pbcom *ages*
with every fedr disconnect and eventually crashes — possibly mid-pass,
costing ~22 s of downlink or the whole session.  Rejuvenating pbcom
between passes resets its age during planned, free downtime.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Sequence, TYPE_CHECKING

from repro.core.tree import RestartTree
from repro.errors import TreeError
from repro.obs import events as ev
from repro.types import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel


class SupportsProactiveRestart(Protocol):
    """The supervisor surface rejuvenation drives (REC or the abstract
    supervisor both implement it)."""

    def request_restart(self, cell_id: str, reason: str = "") -> bool:
        """Execute a restart of ``cell_id`` if idle; returns acceptance."""


class RejuvenationScheduler:
    """Periodic, idleness-gated proactive restarts of chosen cells."""

    def __init__(
        self,
        kernel: "Kernel",
        supervisor: SupportsProactiveRestart,
        tree: RestartTree,
        cells: Sequence[str],
        period: SimTime,
        idle_predicate: Optional[Callable[[SimTime], bool]] = None,
        jitter_fraction: float = 0.05,
    ) -> None:
        """Rejuvenate each of ``cells`` every ``period`` seconds.

        ``idle_predicate(now)`` must return True for a round to run (default:
        always idle).  A small jitter decorrelates rounds from other periodic
        activity.  Unknown cell ids are rejected eagerly — a typo here would
        otherwise silently never rejuvenate anything.
        """
        if period <= 0:
            raise TreeError(f"rejuvenation period must be positive: {period!r}")
        for cell_id in cells:
            tree.get_cell(cell_id)  # raises UnknownCellError on typos
        self.kernel = kernel
        self.supervisor = supervisor
        self.tree = tree
        self.cells = list(cells)
        self.period = period
        self.idle_predicate = idle_predicate or (lambda _now: True)
        self._rng = kernel.rngs.stream("rejuvenation.jitter")
        self._jitter = jitter_fraction * period
        self._running = True
        self.rounds_attempted = 0
        self.rounds_executed = 0
        self.rounds_skipped_busy = 0
        self.rounds_skipped_not_idle = 0
        self._schedule_next()

    def stop(self) -> None:
        """Disable future rounds (armed timers become no-ops)."""
        self._running = False

    def _schedule_next(self) -> None:
        delay = self.period
        if self._jitter > 0:
            delay += self._rng.uniform(-self._jitter, self._jitter)
        self.kernel.schedule_after(max(delay, 1e-6), self._round)

    def _round(self) -> None:
        if not self._running:
            return
        self._schedule_next()
        self.rounds_attempted += 1
        if not self.idle_predicate(self.kernel.now):
            self.rounds_skipped_not_idle += 1
            return
        for cell_id in self.cells:
            accepted = self.supervisor.request_restart(cell_id, reason="rejuvenation")
            if accepted:
                self.rounds_executed += 1
                self.kernel.trace.emit(
                    "rejuvenation", ev.PROACTIVE_RESTART, cell=cell_id
                )
            else:
                self.rounds_skipped_busy += 1


def no_pass_imminent(
    windows: Sequence, margin_s: float
) -> Callable[[SimTime], bool]:
    """Idle predicate: true when no pass overlaps [now, now + margin].

    ``margin_s`` should exceed the rejuvenated cell's restart duration so a
    proactive restart can never bleed into a pass (§5.2: downtime during
    passes is the expensive kind).
    """
    ordered = sorted(windows, key=lambda w: w.start)

    def idle(now: SimTime) -> bool:
        horizon = now + margin_s
        for window in ordered:
            if window.end <= now:
                continue
            if window.start >= horizon:
                return True
            return False  # a pass is in progress or starts within margin
        return True

    return idle
