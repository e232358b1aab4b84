"""Restartable-component framework.

A *behavior* is the message-level logic hosted inside a simulated process:
it attaches to the bus, answers liveness pings, dispatches commands, and
tears its connections down when the process dies.  Mercury's components
(:mod:`repro.mercury.components`) are all behaviors; so are the broker, the
failure detector and the recovery module.
"""

from repro.components.base import Behavior, BusAttachedBehavior

__all__ = [
    "Behavior",
    "BusAttachedBehavior",
]
