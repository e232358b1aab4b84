"""fedrcom — the original monolithic bidirectional radio proxy (trees I/II).

"fedrcom is a bidirectional proxy between XML command messages and low-level
radio commands" (§2.1).  Before the §4.2 split it both owned the serial
port (the slow hardware negotiation — high MTTR) and ran the buggy command
translator (low MTTF): "high MTTR and low MTTF — a bad combination", the
motivating example for splitting components along MTTR/MTTF lines.

Functionally it is the fusion of :class:`FedrBehavior` and
:class:`PbcomBehavior` in one address space: bus command in, radio hardware
out, no TCP hop in between.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.components.base import BusAttachedBehavior
from repro.errors import ComponentError
from repro.obs import events as ev
from repro.types import Severity, SimTime
from repro.xmlcmd.commands import CommandMessage, Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.mercury.hardware import Radio, SerialPort
    from repro.procmgr.process import SimProcess
    from repro.transport.network import Network


class FedrcomBehavior(BusAttachedBehavior):
    """The monolithic radio-proxy behavior."""

    def __init__(
        self,
        process: "SimProcess",
        network: "Network",
        serial: "SerialPort",
        radio: "Radio",
        bus_address: str = "mbus:7000",
    ) -> None:
        super().__init__(process, network, bus_address)
        self.serial = serial
        self.radio = radio
        self.commands_applied = 0
        #: User-plane command uplinks acknowledged (workload endpoint).
        self.svc_requests = 0

    def on_start(self) -> None:
        # Serial acquisition and radio negotiation happen before the bus
        # attach, exactly as in the real startup sequence; their duration is
        # the dominant share of fedrcom's calibrated startup work.
        self.serial.acquire(self.name)
        self.radio.negotiate(self.name)
        super().on_start()

    def on_kill(self) -> None:
        super().on_kill()
        self.serial.release(self.name)
        self.radio.drop_negotiation(self.name)

    def on_message(self, message: Message) -> None:
        if not isinstance(message, CommandMessage):
            return
        if message.verb == "command-uplink":
            # User-plane service endpoint: the monolith owns the radio
            # directly, so an uplink is acknowledged whenever fedrcom
            # itself is healthy (no separate radio-path coupling).
            self.svc_requests += 1
            self._reply_service(message, "uplink", "uplinked", self.svc_requests)
            return
        if message.verb != "radio-set-freq":
            return
        try:
            self._apply_frequency(float(message.params["frequency_hz"]))
        except (KeyError, ValueError, ComponentError) as error:
            self.trace(ev.BAD_RADIO_COMMAND, severity=Severity.WARNING, error=str(error))

    def _apply_frequency(self, frequency: float, at: Optional[SimTime] = None) -> None:
        """Tune the radio to ``frequency``, now or (ses's folded loop
        replaying a forward) at the earlier instant ``at``."""
        self.radio.tune(frequency, by=self.name, at=at)
        self.commands_applied += 1
