"""Restart contention: the shared-resource startup model.

Empirical basis (paper, Table 2 discussion): restarting all of Mercury at
once took 24.75 s although the slowest component alone restarts in ~21 s —
"a whole system restart causes contention for resources that is not present
when restarting just one component; this contention slows all components
down."

Model
-----
Each starting process owns a fixed amount of *startup work*, measured in
seconds of uncontended startup.  Contention slows the work down by the
factor ``1 + c * (k - 1)``, where ``c`` is the contention coefficient
(``c = 0`` disables contention entirely).  Two interpretations of ``k`` are
supported:

``batch`` (default, used by the calibrated Mercury model)
    ``k`` is the size of the restart batch the process started in, fixed for
    the whole startup.  This matches the paper's observation pattern: a
    whole-system restart keeps *all* components slow for their entire
    startup (24.75 s system restart vs ~21 s for the slowest component
    alone), because heavyweight initialisation (JVM spin-up, disk I/O)
    thrashes shared resources for the duration.

``shared``
    Processor sharing: ``k`` is the *instantaneous* number of concurrently
    starting processes, so contention fades as fast starters finish.  On
    each membership change the pool banks accumulated progress and
    reschedules each startup's completion for ``remaining / rate(k)``
    seconds out.  The contention-model ablation bench compares the two.

Nothing is cancelled: each scheduled completion carries a ticket from a
pool-wide counter, stamped on its startup, and a completion whose startup
is gone or holds a newer ticket (aborted, or re-timed by a membership
change) returns without effect.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.errors import ProcessError
from repro.types import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel


class _Startup:
    """Book-keeping for one in-flight startup."""

    __slots__ = ("name", "remaining", "on_complete", "ticket")

    def __init__(
        self, name: str, work: float, on_complete: Callable[[], None]
    ) -> None:
        self.name = name
        self.remaining = work
        self.on_complete = on_complete
        #: The ticket of the one scheduled completion that may finish it.
        self.ticket = 0


class StartupContention:
    """Contention pool for concurrent process startups (batch or shared mode)."""

    MODES = ("batch", "shared")

    def __init__(
        self, kernel: "Kernel", coefficient: float = 0.0, mode: str = "batch"
    ) -> None:
        if coefficient < 0:
            raise ProcessError(f"contention coefficient must be >= 0, got {coefficient!r}")
        if mode not in self.MODES:
            raise ProcessError(f"unknown contention mode {mode!r}; use one of {self.MODES}")
        self._kernel = kernel
        self.coefficient = coefficient
        self.mode = mode
        self._active: Dict[str, _Startup] = {}
        self._last_update: SimTime = kernel.now
        self._tickets = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @property
    def active_count(self) -> int:
        """Number of startups currently in flight."""
        return len(self._active)

    def rate(self, k: Optional[int] = None) -> float:
        """Progress rate per starting process when ``k`` are concurrent."""
        if k is None:
            k = len(self._active)
        if k <= 1:
            return 1.0
        return 1.0 / (1.0 + self.coefficient * (k - 1))

    def begin(
        self,
        name: str,
        work: float,
        on_complete: Callable[[], None],
        batch_size: int = 1,
    ) -> None:
        """Register a startup needing ``work`` uncontended seconds.

        ``on_complete`` fires (via the kernel) when the work is done.  A
        process restarting while its previous startup is still in flight must
        :meth:`abort` first — the manager enforces this.  ``batch_size`` is
        the size of the restart batch (used by ``batch`` mode only).
        """
        if name in self._active:
            raise ProcessError(f"startup for {name!r} already in flight")
        if work < 0:
            raise ProcessError(f"startup work must be >= 0, got {work!r}")
        if batch_size < 1:
            raise ProcessError(f"batch_size must be >= 1, got {batch_size!r}")
        if self.mode == "batch":
            # Fixed slowdown for the whole startup; no rescheduling needed.
            inflated = work * (1.0 + self.coefficient * (batch_size - 1))
            startup = _Startup(name, inflated, on_complete)
            self._active[name] = startup
            self._schedule(startup, inflated, self._complete_batch)
            return
        self._bank_progress()
        self._active[name] = _Startup(name, work, on_complete)
        self._reschedule_all()

    def _complete_batch(self, name: str, ticket: int) -> None:
        if not self._current(name, ticket):
            return
        self._active.pop(name).on_complete()

    def abort(self, name: str) -> None:
        """Drop an in-flight startup (the process was killed mid-start);
        its scheduled completion finds it gone and returns."""
        if name not in self._active:
            return
        if self.mode == "batch":
            del self._active[name]
            return
        # Bank at the old rate (the aborted startup was consuming a share
        # until this instant), then remove it and speed the others up.
        self._bank_progress()
        del self._active[name]
        self._reschedule_all()

    def is_starting(self, name: str) -> bool:
        """Whether ``name`` has a startup in flight."""
        return name in self._active

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _bank_progress(self) -> None:
        """Credit elapsed progress to all active startups at the current rate."""
        now = self._kernel.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0:
            return
        rate = self.rate()
        for startup in self._active.values():
            startup.remaining = max(0.0, startup.remaining - elapsed * rate)

    def _schedule(
        self, startup: _Startup, eta: SimTime, complete: Callable[[str, int], None]
    ) -> None:
        """Schedule ``startup``'s completion ``eta`` seconds out under a
        fresh ticket, which makes every completion scheduled before it
        stale."""
        self._tickets += 1
        startup.ticket = self._tickets
        self._kernel.schedule_after(eta, complete, startup.name, self._tickets)

    def _current(self, name: str, ticket: int) -> bool:
        """Whether a completion holding ``ticket`` may finish ``name``."""
        startup = self._active.get(name)
        return startup is not None and startup.ticket == ticket

    def _reschedule_all(self) -> None:
        rate = self.rate()
        for startup in self._active.values():
            self._schedule(startup, startup.remaining / rate, self._complete)

    def _complete(self, name: str, ticket: int) -> None:
        if not self._current(name, ticket):
            return
        # Bank first, while the completing startup still occupies its share.
        self._bank_progress()
        startup = self._active.pop(name)
        self._reschedule_all()
        startup.on_complete()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StartupContention(c={self.coefficient}, active={sorted(self._active)})"
        )
