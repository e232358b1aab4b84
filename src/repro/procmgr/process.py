"""Simulated processes and their specifications.

A :class:`SimProcess` is the unit the recoverer kills and restarts.  Its
startup cost is supplied by the :class:`ProcessSpec` as a function of a
:class:`StartupContext`, because several Mercury components' startup time
depends on *circumstances*, not just identity:

* ``ses``/``str`` pay a resynchronisation penalty when restarted without
  their peer (paper §4.3);
* ``pbcom`` pays a serial-port negotiation cost every start (§4.2);
* random variation makes recovery times a distribution with a small
  coefficient of variation, as the paper asserts of the real system (§3.2).

Processes optionally host a *behavior* object (see
:mod:`repro.components.base`) that implements the component's message-level
logic.  The lifecycle calls the behavior's hooks; the behavior never drives
the lifecycle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Optional, TYPE_CHECKING

from repro.errors import InvalidTransitionError
from repro.obs import events as ev
from repro.types import ProcessState, Severity, Signal, SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.procmgr.manager import ProcessManager


@dataclass(frozen=True)
class StartupContext:
    """Everything a startup-work function may consult.

    Attributes
    ----------
    manager:
        The owning process manager (peer states can be inspected).
    process:
        The process that is starting.
    rng:
        This process's private random stream.
    batch:
        Names of all processes being (re)started in the same restart action.
        A restart group restarted by the recoverer starts as one batch; the
        ``ses``/``str`` resync penalty is waived exactly when the peer is in
        the batch.
    hint:
        Start hint of the recovery strategy that bounced the process
        (``"cold"`` for an ordinary restart).  The
        :mod:`repro.core.recovery_strategies` strategies pass ``"micro"``
        or ``"replay"``, and a component's startup-work function may honour
        it (checkpoint restore instead of a cold boot).  Components that do
        not understand a hint simply ignore it.
    """

    manager: "ProcessManager"
    process: "SimProcess"
    rng: random.Random
    batch: FrozenSet[str]
    hint: str = "cold"


#: Computes seconds of uncontended startup work for one start attempt.
StartupWorkFn = Callable[[StartupContext], float]


def constant_work(seconds: float) -> StartupWorkFn:
    """Startup-work function returning a fixed cost (useful in tests)."""

    def work(_context: StartupContext) -> float:
        return seconds

    return work


def noisy_work(seconds: float, relative_sigma: float = 0.02) -> StartupWorkFn:
    """Startup work with multiplicative Gaussian noise, clamped positive.

    A small ``relative_sigma`` keeps the coefficient of variation small, per
    the paper's §3.2 assumption about Mercury's recovery-time distributions.
    """

    def work(context: StartupContext) -> float:
        factor = max(0.0, context.rng.gauss(1.0, relative_sigma))
        return seconds * factor

    return work


@dataclass
class ProcessSpec:
    """Static description of a supervised process.

    Attributes
    ----------
    name:
        Unique process/component name (``"fedr"``).
    startup_work:
        Function computing the uncontended startup cost per start attempt.
    behavior_factory:
        Optional callable ``(process) -> behavior`` building the component
        logic hosted by the process; see :class:`repro.components.base.Behavior`.
    metadata:
        Free-form annotations (e.g. nominal MTTF) used by reports.
    """

    name: str
    startup_work: StartupWorkFn
    behavior_factory: Optional[Callable[["SimProcess"], Any]] = None
    metadata: Dict[str, Any] = field(default_factory=dict)


class SimProcess:
    """One supervised simulated process."""

    def __init__(self, manager: "ProcessManager", spec: ProcessSpec) -> None:
        self.manager = manager
        self.spec = spec
        self.name = spec.name
        self.state = ProcessState.NEW
        #: Behavior object (component logic), or None for bare processes.
        self.behavior: Any = None
        #: Metadata of the failure currently afflicting the process, if any.
        self.failure: Any = None
        #: Metadata of the most recent failure, kept across restarts (the
        #: correlation machinery uses it to attribute induced failures).
        self.last_failure: Any = None
        #: Simulated time of the most recent transition into RUNNING.
        self.last_ready_at: Optional[SimTime] = None
        #: Simulated time of the most recent kill/failure.
        self.last_down_at: Optional[SimTime] = None
        #: Number of completed starts.
        self.start_count = 0
        #: Names restarted together with this process in its latest start.
        self.last_batch: FrozenSet[str] = frozenset()
        #: Recovery-procedure hint of the latest start ("cold" by default).
        #: Behaviors consult it in ``on_start`` to pick e.g. a microreboot
        #: session restore or a checkpoint-replay path.
        self.last_hint: str = "cold"
        #: Number of kills/failures observed.
        self.failure_count = 0
        #: Fail-slow mode: ``None`` (healthy), ``"hang"`` (alive, answers
        #: nothing), or ``"zombie"`` (answers pings, drops real work).
        #: Behaviors consult this on every receive/send; a restart clears it.
        self.degraded_mode: Optional[str] = None
        #: Number of fail-slow degradations observed.
        self.degrade_count = 0
        self._source = f"proc.{spec.name}"
        self._rng = manager.kernel.rngs.stream(self._source)
        if spec.behavior_factory is not None:
            self.behavior = spec.behavior_factory(self)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def kernel(self):  # noqa: ANN201 - avoids import cycle in annotations
        """The simulation kernel (convenience accessor)."""
        return self.manager.kernel

    @property
    def is_running(self) -> bool:
        """Whether the process currently answers liveness pings."""
        return self.state is ProcessState.RUNNING

    @property
    def rng(self) -> random.Random:
        """This process's private random stream."""
        return self._rng

    # ------------------------------------------------------------------
    # lifecycle (driven by the manager)
    # ------------------------------------------------------------------

    def _begin_start(self, batch: FrozenSet[str], hint: str = "cold") -> None:
        if self.state not in (
            ProcessState.NEW,
            ProcessState.FAILED,
            ProcessState.STOPPED,
        ):
            raise InvalidTransitionError(self.name, self.state.value, "starting")
        self.manager.kernel.supervision.poke(self.name)
        self.state = ProcessState.STARTING
        self.last_batch = batch
        self.last_hint = hint
        context = StartupContext(
            manager=self.manager, process=self, rng=self._rng, batch=batch, hint=hint
        )
        work = self.spec.startup_work(context)
        trace = self.kernel.trace
        if trace.wants(ev.PROCESS_START):
            trace.emit(self._source, ev.PROCESS_START, name=self.name, work=round(work, 6))
        self.manager.contention.begin(
            self.name, work, self._on_start_complete, batch_size=len(batch)
        )

    def _on_start_complete(self) -> None:
        if self.state is not ProcessState.STARTING:
            return  # killed while starting; contention already aborted
        self.manager.kernel.supervision.poke(self.name)
        self.state = ProcessState.RUNNING
        self.failure = None
        self.degraded_mode = None
        self.start_count += 1
        self.last_ready_at = self.kernel.now
        trace = self.kernel.trace
        if trace.wants(ev.PROCESS_READY):
            trace.emit(self._source, ev.PROCESS_READY, name=self.name)
        if self.behavior is not None:
            self.behavior.on_start()
        self.manager._notify_ready(self)

    def _degrade(self, mode: str, failure: Any = None) -> bool:
        """Enter a fail-slow mode (manager-internal; see manager.degrade).

        Unlike :meth:`_kill`, this is *not* a lifecycle transition: the
        process stays RUNNING and no lifecycle listener is notified — the
        whole point of fail-slow failures is that the supervisor must
        discover them through its own probes.  Returns whether the mode
        actually changed (degrading a non-running process is a no-op: the
        fault landed on a corpse and the pending restart will wipe it).
        """
        if mode not in ("hang", "zombie"):
            raise ValueError(f"unknown degraded mode {mode!r}")
        if self.state is not ProcessState.RUNNING:
            return False
        if self.degraded_mode == "hang":
            return False  # hang dominates: a hung process can't get worse
        if self.degraded_mode == mode:
            return False
        # Not a lifecycle transition, but a folded FD round could see it;
        # and a folded loop replays no fail-slow receiver, so the poke is
        # about the station at large: it ends such a fold.
        self.manager.kernel.supervision.poke()
        self.degraded_mode = mode
        self.degrade_count += 1
        self.failure = failure
        if failure is not None:
            self.last_failure = failure
        self.kernel.trace.emit(
            self._source,
            ev.PROCESS_DEGRADED,
            severity=Severity.WARNING,
            name=self.name,
            mode=mode,
            failure_id=getattr(failure, "failure_id", None),
        )
        return True

    def _kill(self, signal: Signal, failure: Any = None) -> None:
        """Terminate the process (manager-internal; see manager.kill/fail)."""
        if self.state in (ProcessState.FAILED, ProcessState.STOPPED, ProcessState.NEW):
            return
        self.manager.kernel.supervision.poke(self.name)
        was_starting = self.state is ProcessState.STARTING
        if was_starting:
            self.manager.contention.abort(self.name)
        self.state = (
            ProcessState.FAILED if signal is Signal.KILL else ProcessState.STOPPED
        )
        self.degraded_mode = None  # a dead process is no longer fail-slow
        self.failure = failure
        if failure is not None:
            self.last_failure = failure
        self.failure_count += 1 if signal is Signal.KILL else 0
        self.last_down_at = self.kernel.now
        kind = ev.PROCESS_FAILED if signal is Signal.KILL else ev.PROCESS_STOPPED
        trace = self.kernel.trace
        if trace.wants(kind):
            trace.emit(
                self._source,
                kind,
                Severity.WARNING if signal is Signal.KILL else Severity.INFO,
                name=self.name,
                signal=str(signal),
                was_starting=was_starting,
            )
        if self.behavior is not None:
            # SIGKILL gives no chance to clean up gracefully, but the OS
            # still reclaims sockets: channels held by the process close and
            # peers observe the disconnect.  The behavior hook models that
            # OS-level teardown, not application code.
            self.behavior.on_kill()
        self.manager._notify_down(self, signal)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimProcess({self.name!r}, {self.state.value})"
