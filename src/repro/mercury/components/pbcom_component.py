"""pbcom — serial-port-to-TCP proxy (the stable half of the §4.2 split).

"pbcom, which maps a serial port to a TCP socket ... is simple and very
stable, but takes a long time to recover (over 21 seconds)" — the slow part
is the serial-port/radio parameter negotiation, whose duration is in the
calibrated startup work.  At the behavior level, pbcom:

* acquires the serial port and records the radio negotiation on start;
* listens on a TCP address for fedr;
* applies ``FREQ <hz>`` low-level commands from fedr to the radio;
* releases the hardware when killed (the OS reclaims the port; the radio
  forgets its negotiated parameters, which is why every pbcom restart pays
  the negotiation again).

Its aging under fedr disconnects is modelled by
:class:`repro.faults.correlation.DisconnectAging`.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, TYPE_CHECKING

from repro.components.base import BusAttachedBehavior
from repro.errors import ComponentError
from repro.faults.store_faults import StoreError
from repro.obs import events as ev
from repro.types import Severity, SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.mercury.hardware import Radio, SerialPort
    from repro.mercury.session_store import SessionStore
    from repro.procmgr.process import SimProcess
    from repro.transport.channel import Endpoint
    from repro.transport.network import Network


class PbcomBehavior(BusAttachedBehavior):
    """The serial-to-TCP proxy behavior.

    pbcom's *data* path is the raw TCP line protocol from fedr; it is also
    attached to the bus, but only so FD's application-level liveness pings
    reach it (every Mercury component answers pings over mbus, §2.2).
    """

    def __init__(
        self,
        process: "SimProcess",
        network: "Network",
        serial: "SerialPort",
        radio: "Radio",
        listen_address: str = "pbcom:9000",
        bus_address: str = "mbus:7000",
        session_store: Optional["SessionStore"] = None,
    ) -> None:
        super().__init__(process, network, bus_address, session_store=session_store)
        self.serial = serial
        self.radio = radio
        self.listen_address = listen_address
        self._listener = None
        self._peer: Optional["Endpoint"] = None
        self.commands_applied = 0
        self.disconnects_seen = 0

    def on_start(self) -> None:
        store = self._session_store
        restored = False
        if store is not None:
            try:
                if (
                    self.process.last_hint == "replay"
                    and store.has_checkpoint(self.name)
                ):
                    age = store.checkpoint_age(self.name, self.kernel.now)
                    store.checkpoints_restored += 1
                    self.trace(
                        ev.CHECKPOINT_RESTORED,
                        component=self.name,
                        age=round(age or 0.0, 9),
                    )
                    restored = True
                else:
                    store.drop_all(self.name)
            except StoreError:
                store.drop_all(self.name)  # store down: cold negotiation
        self.serial.acquire(self.name)
        self.radio.negotiate(self.name)
        if store is not None and not restored:
            # Checkpoint the freshly negotiated serial/radio parameters; a
            # replay restart then pays only the replay fraction of the
            # 21-second negotiation (§4.2).
            try:
                store.save_checkpoint(
                    self.name, self.kernel.now, {"negotiated": True}
                )
            except StoreError:
                pass  # store down: this negotiation goes un-checkpointed
            else:
                self.trace(ev.CHECKPOINT_TAKEN, component=self.name)
        self._listener = self.network.listen(self.listen_address, self._on_accept)
        self.trace(ev.PBCOM_LISTENING, address=self.listen_address)
        super().on_start()

    def on_kill(self) -> None:
        super().on_kill()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self._peer is not None:
            self._peer.close()
            self._peer = None
        self.serial.release(self.name)
        self.radio.drop_negotiation(self.name)

    def _on_accept(self, endpoint: "Endpoint") -> None:
        self._peer = endpoint
        endpoint.on_message(self._on_command)
        endpoint.on_close(partial(self._on_peer_close, endpoint))
        self.trace(ev.FEDR_CONNECTED)

    def _on_peer_close(self, endpoint: "Endpoint") -> None:
        if self._peer is endpoint:
            self._peer = None
            self.disconnects_seen += 1
            self.trace(ev.FEDR_DISCONNECTED, severity=Severity.WARNING)

    def _on_command(self, raw: str) -> None:
        """Apply one low-level radio command line (``FREQ <hz>``)."""
        parts = str(raw).split()
        if len(parts) == 2 and parts[0] == "FREQ":
            try:
                self._apply_frequency(float(parts[1]))
            except (ValueError, ComponentError) as error:
                self.trace(
                    ev.BAD_RADIO_COMMAND, severity=Severity.WARNING, error=str(error)
                )
        else:
            self.trace(ev.BAD_RADIO_COMMAND, severity=Severity.WARNING, raw=str(raw))

    def _apply_frequency(self, frequency: float, at: Optional[SimTime] = None) -> None:
        """Tune the radio to ``frequency``, now or (ses's folded loop
        replaying a forward) at the earlier instant ``at``."""
        self.radio.tune(frequency, by=self.name, at=at)
        self.commands_applied += 1
