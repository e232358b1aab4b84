"""The process manager: spawn, kill, fail, and batch-restart processes.

The manager is the boundary between the recovery machinery and the process
substrate.  The recoverer never touches :class:`SimProcess` internals; it
calls :meth:`ProcessManager.restart` with the set of component names a
restart cell covers, and the manager kills then starts them as one batch
(so the contention model and the batch-aware startup-work functions see the
simultaneity).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, TYPE_CHECKING

from repro.errors import DuplicateComponentError, UnknownProcessError
from repro.procmgr.contention import StartupContention
from repro.procmgr.process import ProcessSpec, SimProcess
from repro.types import ProcessState, Signal

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel

#: Callback signature for lifecycle subscribers: ``(process, event)`` where
#: event is "ready" or "down:<signal>".
LifecycleListener = Callable[[SimProcess, str], None]


class ProcessManager:
    """Registry and lifecycle driver for all simulated processes."""

    def __init__(
        self,
        kernel: "Kernel",
        contention_coefficient: float = 0.0,
        contention_mode: str = "batch",
    ) -> None:
        self.kernel = kernel
        self.contention = StartupContention(
            kernel, contention_coefficient, contention_mode
        )
        self._processes: Dict[str, SimProcess] = {}
        self._listeners: List[LifecycleListener] = []

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------

    def spawn(self, spec: ProcessSpec, start: bool = False) -> SimProcess:
        """Register a process from its spec; optionally start it immediately."""
        if spec.name in self._processes:
            raise DuplicateComponentError(f"process {spec.name!r} already registered")
        process = SimProcess(self, spec)
        self._processes[spec.name] = process
        if start:
            self.start(spec.name)
        return process

    def get(self, name: str) -> SimProcess:
        """Look up a process by name; raises for unknown names."""
        try:
            return self._processes[name]
        except KeyError:
            raise UnknownProcessError(f"no process named {name!r}") from None

    def maybe_get(self, name: str) -> Optional[SimProcess]:
        """Look up a process by name, returning ``None`` if unknown."""
        return self._processes.get(name)

    @property
    def names(self) -> List[str]:
        """All registered process names, in registration order."""
        return list(self._processes)

    def processes(self) -> List[SimProcess]:
        """All registered processes, in registration order."""
        return list(self._processes.values())

    def running(self) -> List[str]:
        """Names of processes currently in RUNNING state."""
        return [p.name for p in self._processes.values() if p.is_running]

    def all_running(self, names: Optional[Iterable[str]] = None) -> bool:
        """Whether every process (or every named one) is RUNNING."""
        targets = self._processes.values() if names is None else [
            self.get(name) for name in names
        ]
        return all(p.is_running for p in targets)

    # ------------------------------------------------------------------
    # lifecycle operations
    # ------------------------------------------------------------------

    def start(
        self,
        name: str,
        batch: Optional[FrozenSet[str]] = None,
        hint: str = "cold",
    ) -> None:
        """Begin starting a process (NEW, FAILED or STOPPED → STARTING)."""
        process = self.get(name)
        process._begin_start(
            batch if batch is not None else frozenset([name]), hint=hint
        )

    def start_all(self, names: Optional[Iterable[str]] = None) -> None:
        """Start many processes as one batch (initial station boot)."""
        targets = list(names) if names is not None else self.names
        batch = frozenset(targets)
        for target in targets:
            self.start(target, batch=batch)

    def kill(self, name: str, signal: Signal = Signal.KILL, failure: Any = None) -> None:
        """Deliver a signal to a process.

        ``Signal.KILL`` models the paper's SIGKILL fault injection: the
        process becomes silently FAILED (it stops answering pings but sends
        no dying gasp).  ``failure`` carries fault metadata consumed by the
        curability bookkeeping (see :mod:`repro.faults`).
        """
        self.get(name)._kill(signal, failure)

    def fail(self, name: str, failure: Any = None) -> None:
        """Inject a fail-silent failure (shorthand for SIGKILL with metadata)."""
        self.kill(name, Signal.KILL, failure)

    def degrade(self, name: str, mode: str, failure: Any = None) -> bool:
        """Put a running process into a fail-slow mode (hang/zombie).

        The process stays RUNNING and *no lifecycle notification fires* —
        fail-slow failures are invisible to anything that watches process
        deaths (notably the abstract supervisor) and must be unmasked by
        end-to-end probing.  A later restart clears the mode.  Returns
        whether the process actually degraded.
        """
        return self.get(name)._degrade(mode, failure)

    def restart(self, names: Iterable[str], hint: str = "cold") -> FrozenSet[str]:
        """Kill (if up) and start the named processes as one batch.

        This is the primitive behind "pushing the button" on a restart cell:
        every component attached to the cell's subtree is bounced together.
        Processes already FAILED are not re-killed, just started.  Returns
        the batch for the caller's bookkeeping.  ``hint`` flows into each
        process's :class:`~repro.procmgr.process.StartupContext` for custom
        recovery procedures (warm restarts).
        """
        batch = frozenset(names)
        if not batch:
            return batch
        for name in sorted(batch):
            process = self.get(name)
            if process.state in (ProcessState.RUNNING, ProcessState.STARTING):
                process._kill(Signal.TERM, None)
        for name in sorted(batch):
            self.start(name, batch=batch, hint=hint)
        return batch

    # ------------------------------------------------------------------
    # lifecycle notifications
    # ------------------------------------------------------------------

    def subscribe(self, listener: LifecycleListener) -> None:
        """Register for ready/down notifications on every process."""
        self._listeners.append(listener)

    # Both notifications wake an armed ``Kernel.run_until``: they are the
    # only points where ``all_running`` flips, and the fault injector cures
    # failures from inside a "ready" listener.

    def _notify_ready(self, process: SimProcess) -> None:
        for listener in list(self._listeners):
            listener(process, "ready")
        self.kernel.wake()

    def _notify_down(self, process: SimProcess, signal: Signal) -> None:
        for listener in list(self._listeners):
            listener(process, f"down:{signal.value}")
        self.kernel.wake()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        states = {name: p.state.value for name, p in self._processes.items()}
        return f"ProcessManager({states})"
