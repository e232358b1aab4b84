"""fedr — front-end driver-radio (the unstable half of the §4.2 split).

"fedr, the front end driver-radio that connects to pbcom over TCP ... is
buggy and unstable, but recovers very quickly (under 6 seconds)."  fedr is
bus-attached: it receives high-level ``radio-set-freq`` commands and
translates them to the low-level ``FREQ`` line protocol on its TCP
connection to pbcom, reconnecting with a retry loop when pbcom is down.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.components.base import BusAttachedBehavior
from repro.errors import ChannelClosedError
from repro.faults.store_faults import StoreError
from repro.obs import events as ev
from repro.types import Severity, SimTime
from repro.xmlcmd.commands import CommandMessage, Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.mercury.session_store import SessionStore
    from repro.procmgr.process import SimProcess
    from repro.transport.channel import Endpoint
    from repro.transport.network import Network


class FedrBehavior(BusAttachedBehavior):
    """The command-translator behavior."""

    def __init__(
        self,
        process: "SimProcess",
        network: "Network",
        bus_address: str = "mbus:7000",
        pbcom_address: str = "pbcom:9000",
        pbcom_retry_interval: SimTime = 0.25,
        session_store: Optional["SessionStore"] = None,
    ) -> None:
        super().__init__(process, network, bus_address, session_store=session_store)
        self.pbcom_address = pbcom_address
        self.pbcom_retry_interval = pbcom_retry_interval
        self._pbcom: Optional["Endpoint"] = None
        self._pbcom_pending = False
        #: Most recent commanded frequency; replayed after a pbcom
        #: (re)connect so radio state survives link outages.
        self._last_frequency: Optional[str] = None
        self.translated = 0
        self.dropped_while_disconnected = 0
        #: User-plane command uplinks acknowledged (workload endpoint).
        self.svc_requests = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        store = self._session_store
        if store is not None:
            try:
                restorable = (
                    self.process.last_hint == "replay"
                    and store.has_checkpoint(self.name)
                )
            except StoreError:
                restorable = False  # store down: degrade to the cold path
            if restorable:
                try:
                    payload = store.load_checkpoint(self.name) or {}
                    age = store.checkpoint_age(self.name, self.kernel.now)
                except StoreError:
                    store.drop_all(self.name)
                else:
                    self._last_frequency = payload.get("frequency") or None
                    store.checkpoints_restored += 1
                    self.trace(
                        ev.CHECKPOINT_RESTORED,
                        component=self.name,
                        age=round(age or 0.0, 9),
                    )
            else:
                store.drop_all(self.name)
        super().on_start()
        self._connect_pbcom()

    def on_kill(self) -> None:
        super().on_kill()
        if self._pbcom is not None:
            self._pbcom.close()
            self._pbcom = None

    # ------------------------------------------------------------------
    # pbcom link
    # ------------------------------------------------------------------

    @property
    def pbcom_connected(self) -> bool:
        """Whether the TCP link to pbcom is currently up."""
        return self._pbcom is not None and self._pbcom.open

    def _connect_pbcom(self) -> None:
        self._pbcom_pending = False
        if not self._alive or self.pbcom_connected:
            return
        # ses's folded loop may owe this link forwards that landed before
        # now: they read the link down and set the frequency replayed below.
        self.kernel.supervision.settle(self.kernel.clock._now)
        self._pbcom = self.network.dial(self.name, self.pbcom_address)
        if self._pbcom is None:
            self._schedule_pbcom_retry()
            return
        self._pbcom.on_close(self._on_pbcom_close)
        self.trace(ev.PBCOM_CONNECTED)
        if self._last_frequency is not None:
            self._send_frequency(self._last_frequency)

    def _on_pbcom_close(self) -> None:
        self._pbcom = None
        if self._alive:
            self.trace(ev.PBCOM_CONNECTION_LOST, severity=Severity.WARNING)
            self._schedule_pbcom_retry()

    def _schedule_pbcom_retry(self) -> None:
        if self._pbcom_pending or not self._alive:
            return
        self._pbcom_pending = True
        self.network.redial(
            self.name, self.pbcom_address, self.pbcom_retry_interval, self._connect_pbcom
        )

    # ------------------------------------------------------------------
    # translation
    # ------------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        if not isinstance(message, CommandMessage):
            return
        if message.verb == "command-uplink":
            # User-plane service endpoint: an uplink is only acknowledged
            # while the radio path is live — with pbcom down the request is
            # dropped and the user's client times out, exactly the §4.2
            # coupling (fedr up, radio gone) made user-visible.
            if not self.pbcom_connected:
                return
            self.svc_requests += 1
            self._reply_service(message, "uplink", "uplinked", self.svc_requests)
            return
        if message.verb != "radio-set-freq":
            return
        frequency = message.params.get("frequency_hz")
        if frequency is None:
            self.trace(ev.BAD_RADIO_SET_FREQ, severity=Severity.WARNING)
            return
        if self._take_frequency(frequency):
            self._send_frequency(frequency)

    def _take_frequency(self, frequency: str) -> bool:
        """Keep a commanded ``frequency``: whether the pbcom link is up to
        translate it (ses's folded loop replays its forwards through here)."""
        self._last_frequency = frequency
        if not self.pbcom_connected:
            self.dropped_while_disconnected += 1
            return False
        return True

    def _send_frequency(self, frequency: str, at: Optional[SimTime] = None) -> Optional[SimTime]:
        """Translate ``frequency`` onto the pbcom link, now, or (a folded
        loop's replay) as sent at the earlier instant ``at``, returning that
        replayed line's arrival at pbcom."""
        if not self.pbcom_connected:
            return None
        assert self._pbcom is not None
        arrival = None
        if at is None:
            try:
                self._pbcom.send(freq_line(frequency))
            except ChannelClosedError:
                self.dropped_while_disconnected += 1
                return None
        else:
            arrival = self._pbcom._hop(at)
        self.translated += 1
        if self._session_store is not None:
            # Checkpoint the tuned frequency so a replay restart resumes
            # from it instead of redoing the whole cold tune-up.
            try:
                first = not self._session_store.has_checkpoint(self.name)
                self._session_store.save_checkpoint(
                    self.name, self.kernel.now if at is None else at, {"frequency": frequency}
                )
            except StoreError:
                return arrival  # store down: this tune-up goes un-checkpointed
            if first:
                self.trace(ev.CHECKPOINT_TAKEN, component=self.name)
        return arrival


def freq_line(frequency: str) -> str:
    """The low-level radio command fedr sends pbcom for ``frequency``."""
    return f"FREQ {frequency}"
