"""Shared primitive types and aliases used across the library.

Keeping these in one module avoids import cycles between subsystems: every
subpackage may depend on :mod:`repro.types` and :mod:`repro.errors` without
pulling in any machinery.
"""

from __future__ import annotations

import enum
from typing import NewType

#: Simulated time, in seconds since the start of the simulation.
SimTime = float

#: Name of a software component (e.g. ``"mbus"``, ``"fedr"``).
ComponentName = NewType("ComponentName", str)

#: Identifier of a restart cell in a restart tree (e.g. ``"R_ses_str"``).
CellId = NewType("CellId", str)


class Severity(enum.Enum):
    """Coarse severity of a trace record."""

    DEBUG = "debug"
    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class ProcessState(enum.Enum):
    """Lifecycle states of a simulated process.

    The lifecycle mirrors what the paper's REC observes about a JVM process:

    ``NEW`` → ``STARTING`` → ``RUNNING`` → (``FAILED`` | ``STOPPING`` →
    ``STOPPED``), with restarts re-entering ``STARTING``.
    """

    NEW = "new"
    STARTING = "starting"
    RUNNING = "running"
    FAILED = "failed"
    STOPPING = "stopping"
    STOPPED = "stopped"

    @property
    def is_terminal(self) -> bool:
        """Whether the process will make no further progress on its own."""
        return self in (ProcessState.FAILED, ProcessState.STOPPED)

    @property
    def is_alive(self) -> bool:
        """Whether the process responds to liveness pings in this state."""
        return self is ProcessState.RUNNING

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class Signal(enum.Enum):
    """Subset of POSIX-style signals understood by the process manager.

    The paper induces failures with ``SIGKILL`` (section 4.1); ``SIGTERM``
    models a graceful stop used for planned restarts of healthy components.
    """

    KILL = "SIGKILL"
    TERM = "SIGTERM"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value
