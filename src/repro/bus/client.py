"""Standalone bus client (not hosted in a supervised process).

Component behaviors get their bus connection from
:class:`repro.components.base.BusAttachedBehavior`; this client is for
everything *outside* the supervised world — the operator console in the
examples, test harnesses, and workload drivers that need to speak the XML
command language on the bus without being restartable components.
"""

from __future__ import annotations

from typing import Callable, List, Optional, TYPE_CHECKING

from repro.errors import ChannelClosedError, NotConnectedError, XmlError
from repro.types import SimTime
from repro.xmlcmd.commands import (
    CommandMessage,
    Message,
    encode_message,
    parse_message,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel
    from repro.transport.channel import Endpoint
    from repro.transport.network import Network


class BusClient:
    """A named client connection to the message bus, with reconnect."""

    def __init__(
        self,
        kernel: "Kernel",
        network: "Network",
        name: str,
        bus_address: str = "mbus:7000",
        reconnect_interval: SimTime = 0.25,
        auto_reconnect: bool = True,
        retain_messages: bool = True,
    ) -> None:
        self.kernel = kernel
        self.network = network
        self.name = name
        self.bus_address = bus_address
        self.reconnect_interval = reconnect_interval
        self.auto_reconnect = auto_reconnect
        #: Workload drivers push millions of replies through one client;
        #: they opt out of the ``received`` archive and rely on handlers.
        self.retain_messages = retain_messages
        self._endpoint: Optional["Endpoint"] = None
        self._handlers: List[Callable[[Message], None]] = []
        self._closed = False
        self._reconnect_pending = False
        self.received: List[Message] = []

    # ------------------------------------------------------------------
    # connection
    # ------------------------------------------------------------------

    @property
    def connected(self) -> bool:
        """Whether a live connection to the broker exists."""
        return self._endpoint is not None and self._endpoint.open

    def connect(self) -> bool:
        """Attempt to connect and attach; returns success."""
        if self._closed:
            raise NotConnectedError(f"client {self.name!r} has been closed")
        if self.connected:
            return True
        endpoint = self.network.dial(self.name, self.bus_address)
        if endpoint is None:
            if self.auto_reconnect:
                self._schedule_reconnect()
            return False
        self._endpoint = endpoint
        endpoint.on_message(self._on_raw)
        endpoint.on_close(self._on_close)
        endpoint.send(
            encode_message(CommandMessage(sender=self.name, target="mbus", verb="attach"))
        )
        return True

    def close(self) -> None:
        """Permanently close the client (no reconnection)."""
        self._closed = True
        self.network.hang_up(self.name)
        if self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None

    def _on_close(self) -> None:
        self._endpoint = None
        if not self._closed and self.auto_reconnect:
            self._schedule_reconnect()

    def _schedule_reconnect(self) -> None:
        if self._reconnect_pending or self._closed:
            return
        self._reconnect_pending = True
        # A bound method, not a closure: the snapshot fork treats functions
        # as atomic, so a forked client's ticket or timer would run against
        # the template's client.
        self.network.redial(
            self.name, self.bus_address, self.reconnect_interval, self._reconnect
        )

    def _reconnect(self) -> None:
        self._reconnect_pending = False
        if not self._closed and not self.connected:
            self.connect()

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------

    def send(self, message: Message) -> bool:
        """Serialize and send; returns False when disconnected."""
        # Attribute reads, not ``connected``: every user request leaves
        # through here.
        endpoint = self._endpoint
        if endpoint is None or not endpoint.open:
            return False
        try:
            endpoint.send(encode_message(message))
        except ChannelClosedError:
            return False
        return True

    def on_message(self, handler: Callable[[Message], None]) -> None:
        """Add a handler for incoming messages (all handlers see everything)."""
        self._handlers.append(handler)

    def _on_raw(self, raw: str) -> None:
        # A ``Wire`` decodes from its memo, plain text through the parser,
        # so malformed traffic is dropped at delivery.
        try:
            message = parse_message(raw)
        except XmlError:
            return
        if self.retain_messages:
            self.received.append(message)
        if self._handlers:
            for handler in list(self._handlers):
                handler(message)
