"""Discrete-event simulation kernel.

The kernel is the substrate for everything in this library: the simulated
Mercury ground station, its message bus, failure detector, and recoverer all
run as events on a :class:`Kernel`.

Design notes
------------

* Time is a float number of simulated seconds (:data:`repro.types.SimTime`).
  The paper's measurements are seconds-scale recovery times, so seconds are
  the natural unit.
* The kernel is strictly deterministic given a seed: events scheduled for the
  same instant fire in FIFO order of scheduling, and all randomness flows
  through named :class:`~repro.sim.rng.RngRegistry` streams.
* Everything is callback-driven: :meth:`Kernel.schedule_at` /
  :meth:`Kernel.schedule_after` queue a callback (:meth:`Kernel.call_at` /
  :meth:`Kernel.call_after` a cancellable one), and a repeating
  activity re-arms itself from its own callback.  Sequential component
  logic (a startup that negotiates with hardware) is a
  :mod:`repro.procmgr` process, not a coroutine.
"""

from repro.sim.clock import Clock
from repro.sim.event import EventHandle
from repro.sim.kernel import Kernel
from repro.sim.rng import RngRegistry
from repro.sim.trace import Trace, TraceRecord

__all__ = [
    "Clock",
    "EventHandle",
    "Kernel",
    "RngRegistry",
    "Trace",
    "TraceRecord",
]
