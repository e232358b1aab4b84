"""Shared measurement utilities: summary statistics and uptime accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, TYPE_CHECKING

from repro.errors import ExperimentError
from repro.types import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.procmgr.manager import ProcessManager
    from repro.procmgr.process import SimProcess


@dataclass(frozen=True)
class RecoveryStats:
    """Summary statistics over a set of recovery-time samples."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @property
    def coefficient_of_variation(self) -> float:
        """std/mean — the paper's §3.2 small-CoV check."""
        return self.std / self.mean if self.mean else 0.0

    @property
    def stderr(self) -> float:
        """Standard error of the mean."""
        return self.std / math.sqrt(self.n) if self.n else 0.0

    @staticmethod
    def from_samples(samples: Sequence[float]) -> "RecoveryStats":
        """Compute stats; raises for an empty sample set."""
        if not samples:
            raise ExperimentError("no samples")
        n = len(samples)
        mean = sum(samples) / n
        variance = sum((s - mean) ** 2 for s in samples) / n if n > 1 else 0.0
        return RecoveryStats(
            n=n,
            mean=mean,
            std=math.sqrt(variance),
            minimum=min(samples),
            maximum=max(samples),
        )


class UptimeTracker:
    """Accumulates per-component and whole-system up/down intervals.

    Subscribes to the process manager's lifecycle notifications; the system
    is "up" when every tracked component is RUNNING (assumption
    ``A_entire``: a failure in any component makes the whole station
    unavailable).
    """

    def __init__(self, manager: "ProcessManager", components: Sequence[str]) -> None:
        self.manager = manager
        self.kernel = manager.kernel
        self.components = list(components)
        self._component_up_since: Dict[str, Optional[SimTime]] = {}
        self._component_uptime: Dict[str, float] = {name: 0.0 for name in components}
        self._component_downtime: Dict[str, float] = {name: 0.0 for name in components}
        self._component_down_since: Dict[str, Optional[SimTime]] = {}
        self._failures: Dict[str, int] = {name: 0 for name in components}
        #: Tracked components with no open up interval; the system is up
        #: exactly when this is zero.  Kept in step with
        #: ``_component_up_since`` so a lifecycle callback never rescans.
        self._not_up = 0
        self._system_up_since: Optional[SimTime] = None
        self._system_down_since: Optional[SimTime] = None
        self.system_uptime = 0.0
        self.system_downtime = 0.0
        self.system_outages = 0
        self._started_at = self.kernel.now
        for name in self._component_uptime:  # each tracked name once
            process = manager.get(name)
            if process.is_running:
                self._component_up_since[name] = self.kernel.now
            else:
                self._component_down_since[name] = self.kernel.now
                self._not_up += 1
        self._sync_system_state()
        manager.subscribe(self._on_lifecycle)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def _sync_system_state(self) -> None:
        now = self.kernel.now
        if not self._not_up:
            if self._system_up_since is None:
                self._system_up_since = now
                if self._system_down_since is not None:
                    self.system_downtime += now - self._system_down_since
                    self._system_down_since = None
        else:
            if self._system_down_since is None:
                self._system_down_since = now
                self.system_outages += 1
                if self._system_up_since is not None:
                    self.system_uptime += now - self._system_up_since
                    self._system_up_since = None

    def _on_lifecycle(self, process: "SimProcess", event: str) -> None:
        name = process.name
        if name not in self._component_uptime:
            return
        now = self.kernel.now
        if event == "ready":
            if self._component_down_since.get(name) is not None:
                self._component_downtime[name] += now - self._component_down_since[name]
                self._component_down_since[name] = None
            if self._component_up_since.get(name) is None:
                self._not_up -= 1
            self._component_up_since[name] = now
        elif event.startswith("down:"):
            if self._component_up_since.get(name) is not None:
                self._component_uptime[name] += now - self._component_up_since[name]
                self._component_up_since[name] = None
                self._not_up += 1
            if self._component_down_since.get(name) is None:
                self._component_down_since[name] = now
            if event == "down:SIGKILL":
                self._failures[name] += 1
        self._sync_system_state()

    def finalize(self) -> None:
        """Flush open intervals up to the current instant."""
        now = self.kernel.now
        for name in self.components:
            if self._component_up_since.get(name) is not None:
                self._component_uptime[name] += now - self._component_up_since[name]
                self._component_up_since[name] = now
            if self._component_down_since.get(name) is not None:
                self._component_downtime[name] += now - self._component_down_since[name]
                self._component_down_since[name] = now
        if self._system_up_since is not None:
            self.system_uptime += now - self._system_up_since
            self._system_up_since = now
        if self._system_down_since is not None:
            self.system_downtime += now - self._system_down_since
            self._system_down_since = now

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def component_uptime(self, name: str) -> float:
        """Accumulated up seconds for a component (call finalize first)."""
        return self._component_uptime[name]

    def component_downtime(self, name: str) -> float:
        """Accumulated down seconds for a component."""
        return self._component_downtime[name]

    def failures_of(self, name: str) -> int:
        """SIGKILL-style failures observed for a component."""
        return self._failures[name]

    def observed_mttf(self, name: str) -> Optional[float]:
        """Observed MTTF: total uptime / number of failures."""
        failures = self._failures[name]
        if failures == 0:
            return None
        return self._component_uptime[name] / failures

    def observed_mttr(self, name: str) -> Optional[float]:
        """Observed per-component MTTR: total downtime / number of failures."""
        failures = self._failures[name]
        if failures == 0:
            return None
        return self._component_downtime[name] / failures

    def system_availability(self) -> float:
        """Fraction of elapsed time the whole station was up."""
        total = self.system_uptime + self.system_downtime
        if total == 0:
            return 1.0
        return self.system_uptime / total
