"""Exception hierarchy for the ``repro`` library.

Every exception raised by the library derives from :class:`ReproError`, so
callers can catch the whole family with one clause.  Subsystems define their
own branches (simulation, transport, process management, restart trees, ...)
to keep error handling precise without a proliferation of unrelated types.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event kernel."""


class ClockError(SimulationError):
    """An operation would move simulated time backwards."""


class KernelStoppedError(SimulationError):
    """An event was scheduled on a kernel that has already been stopped."""


class TransportError(ReproError):
    """Base class for simulated-network errors."""


class ChannelClosedError(TransportError):
    """A send or receive was attempted on a closed channel."""


class ConnectionRefusedError_(TransportError):
    """No listener is bound to the requested simulated address."""


class AddressInUseError(TransportError):
    """Two listeners attempted to bind the same simulated address."""


class XmlError(ReproError):
    """Base class for XML command-language errors."""


class XmlParseError(XmlError):
    """The input text is not well-formed XML (for the supported subset)."""

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        #: Character offset in the input at which parsing failed (-1 if unknown).
        self.position = position


class CommandSchemaError(XmlError):
    """A well-formed XML document does not match the command schema."""


class ProcessError(ReproError):
    """Base class for simulated process-management errors."""


class UnknownProcessError(ProcessError):
    """The referenced process id is not registered with the manager."""


class InvalidTransitionError(ProcessError):
    """A process lifecycle transition was requested from an incompatible state."""

    def __init__(self, name: str, current: str, requested: str) -> None:
        super().__init__(
            f"process {name!r}: cannot go from state {current!r} to {requested!r}"
        )
        self.process_name = name
        self.current_state = current
        self.requested_state = requested


class BusError(ReproError):
    """Base class for message-bus errors."""


class NotConnectedError(BusError):
    """A bus operation was attempted while the client is disconnected."""


class ComponentError(ReproError):
    """Base class for restartable-component framework errors."""


class DuplicateComponentError(ComponentError):
    """Two components were registered under the same name."""


class FaultModelError(ReproError):
    """Base class for fault-injection configuration errors."""


class TreeError(ReproError):
    """Base class for restart-tree structural errors."""


class DuplicateCellError(TreeError):
    """A restart cell id occurs more than once in a tree."""


class UnknownCellError(TreeError):
    """The referenced restart cell does not exist in the tree."""


class UnknownComponentError(TreeError):
    """The referenced component is not attached to any leaf of the tree."""


class TransformationError(TreeError):
    """A restart-tree transformation cannot be applied at the given site."""


class ExperimentError(ReproError):
    """Base class for experiment-harness errors."""
