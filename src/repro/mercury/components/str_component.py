"""str — the satellite tracker.

"str (satellite tracker) points antennas to track a satellite during a pass"
(§2.1).  It consumes ``track`` commands from ses and slews the antenna.  The
module is named ``str_component`` because ``str`` is a Python builtin; the
*component name* on the bus remains ``"str"`` as in the paper.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.components.base import BusAttachedBehavior
from repro.errors import ComponentError
from repro.mercury.components.session_hooks import (
    _externalize_session,
    _handle_session_start,
)
from repro.obs import events as ev
from repro.types import Severity
from repro.xmlcmd.commands import CommandMessage, Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.mercury.hardware import Antenna
    from repro.mercury.session_store import SessionStore
    from repro.procmgr.process import SimProcess
    from repro.transport.network import Network


class StrBehavior(BusAttachedBehavior):
    """The satellite-tracker behavior."""

    def __init__(
        self,
        process: "SimProcess",
        network: "Network",
        antenna: "Antenna",
        bus_address: str = "mbus:7000",
        estimator_name: str = "ses",
        session_store: Optional["SessionStore"] = None,
    ) -> None:
        super().__init__(process, network, bus_address, session_store=session_store)
        self.antenna = antenna
        self.estimator_name = estimator_name
        self.track_commands = 0
        #: User-plane pass-scheduling requests answered (workload endpoint).
        self.svc_requests = 0
        self._session_restored = False

    def on_start(self) -> None:
        self._session_restored = _handle_session_start(self)
        super().on_start()

    def on_bus_connected(self) -> None:
        if self._session_restored:
            # Microreboot: session restored from the store, peer unharmed.
            return
        # Mirror of ses's handshake (§4.3): both sides block on this in the
        # real system, which is where the lone-restart penalty comes from.
        self.send(
            CommandMessage(sender=self.name, target=self.estimator_name, verb="sync")
        )

    def on_message(self, message: Message) -> None:
        if not isinstance(message, CommandMessage):
            return
        if message.verb == "sync":
            self.send(
                CommandMessage(sender=self.name, target=message.sender, verb="sync-ack")
            )
            return
        if message.verb == "sync-ack":
            _externalize_session(self, peer=message.sender)
            return
        if message.verb == "pass-schedule":
            # User-plane service endpoint: book antenna time.  The reply
            # carries the tracker's command ledger as its booking token.
            supervision = self.kernel.supervision
            if self.kernel.clock._now > supervision.loop_due:
                supervision.settle(self.kernel.clock._now)  # the ledger counts folded solves
            self.svc_requests += 1
            self._reply_service(message, "schedule", "tracked", self.track_commands)
            return
        if message.verb == "track":
            try:
                azimuth = float(message.params["azimuth"])
                elevation = float(message.params["elevation"])
            except (KeyError, ValueError):
                self.trace(ev.BAD_TRACK_COMMAND, severity=Severity.WARNING)
                return
            try:
                self.antenna.point(azimuth, elevation, by=self.name)
            except ComponentError as error:
                self.trace(
                    ev.POINTING_REJECTED, severity=Severity.WARNING, error=str(error)
                )
                return
            self.track_commands += 1
