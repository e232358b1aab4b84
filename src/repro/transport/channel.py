"""Bidirectional reliable channels.

A :class:`Channel` is the simulated analogue of an established TCP
connection: two :class:`Endpoint` halves, each with a receive callback, FIFO
in-order delivery with network latency, and close notification delivered to
the peer.  Messages in flight when a channel closes are dropped — consistent
with an abrupt process death (SIGKILL) severing the connection.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.errors import ChannelClosedError

if TYPE_CHECKING:  # pragma: no cover
    from repro.transport.network import Network

#: The one-copy, no-spike plan of a fault-free hop.
_NO_EXTRA = (0.0,)


class Endpoint:
    """One half of a channel, held by one of the two communicating parties.

    It owns the whole message path (:meth:`send` here, :meth:`_deliver` on
    the peer); the channel keeps the counters and the teardown.
    """

    __slots__ = ("_channel", "_network", "name", "open", "_on_message", "_on_close",
                 "_peer", "_inbox_while_unset", "_last_arrival")

    def __init__(self, channel: "Channel", name: str) -> None:
        self._channel = channel
        self._network = channel._network
        #: Human-readable identity of the holder (for traces and errors).
        self.name = name
        #: Whether the channel is still open; :meth:`Channel.close` writes it.
        self.open = True
        self._on_message: Optional[Callable[[Any], None]] = None
        self._on_close: Optional[Callable[[], None]] = None
        self._peer: Optional["Endpoint"] = None
        self._inbox_while_unset: list = []
        #: Last scheduled arrival toward *this* endpoint: the per-direction
        #: FIFO clamp, stored on the endpoint itself so a channel survives
        #: structural copying (snapshot/fork) without identity-keyed state.
        self._last_arrival = 0.0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    @property
    def peer(self) -> "Endpoint":
        """The opposite endpoint of this channel."""
        assert self._peer is not None
        return self._peer

    def on_message(self, callback: Callable[[Any], None]) -> None:
        """Set the receive handler.

        Messages delivered before a handler is installed are buffered and
        flushed on installation, so a server may connect-then-configure
        without a race.
        """
        self._on_message = callback
        if self._inbox_while_unset:
            pending, self._inbox_while_unset = self._inbox_while_unset, []
            for message in pending:
                callback(message)

    def on_close(self, callback: Callable[[], None]) -> None:
        """Set the handler invoked when the *peer* closes the channel."""
        self._on_close = callback

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------

    def send(self, message: Any) -> None:
        """Queue ``message`` for in-order delivery to the peer.

        Per-direction "last scheduled arrival" guarantees FIFO even when
        latency jitter would reorder independent sends.  The clamp also
        collapses back-to-back sends onto the *same* arrival instant, which
        the kernel batches into one queue entry (the tail bucket) — a burst
        of N sends costs one heap push, not N.

        :meth:`send_base` repeats this body with a fixed delay, inline
        rather than through a shared helper so neither hop pays a frame
        (DESIGN.md §10's per-hop table): change the two together.
        """
        channel = self._channel
        if not self.open:
            raise ChannelClosedError(f"{self.name!r} cannot send on closed channel {channel!r}")
        receiver = self._peer
        network = self._network
        faults = network.faults
        channel.messages_sent += 1
        kernel = network.kernel
        if faults is None or not faults.active:
            # The fault-free hop: one draw, one clamp, one event.  Equal to
            # the loop below over ``copies=(0.0,)`` (``x + 0.0 == x``).
            arrival = kernel.clock._now + network.latency.sample()
            if arrival < receiver._last_arrival:
                arrival = receiver._last_arrival
            else:
                receiver._last_arrival = arrival
            kernel.schedule_at(arrival, receiver._deliver, message)
            return
        copies = faults.plan(self.name, receiver.name)
        if copies is None:
            channel.messages_lost += 1
            return  # dropped or partitioned: the sender never knows
        sample = network.latency.sample
        for extra in copies:
            arrival = kernel.clock._now + sample() + extra
            if arrival < receiver._last_arrival:
                arrival = receiver._last_arrival
            else:
                receiver._last_arrival = arrival
            kernel.schedule_at(arrival, receiver._deliver, message)

    def send_base(self, message: Any) -> None:
        """:meth:`send` at the latency model's ``base`` delay, drawing nothing.

        The liveness protocol's path: FD's pings and their replies, and
        everything on the FD↔REC control channel.  Their arrivals are a
        pure function of the send instant, so a ping round's hops can be
        computed rather than simulated (DESIGN.md §9, "Quiet rounds"), and
        no ping moves another message's latency draw.  The FIFO clamp and
        the fault fabric apply as in :meth:`send`, whose body this repeats
        but for the delay: change the two together.
        """
        channel = self._channel
        if not self.open:
            raise ChannelClosedError(f"{self.name!r} cannot send on closed channel {channel!r}")
        receiver = self._peer
        network = self._network
        faults = network.faults
        channel.messages_sent += 1
        copies = _NO_EXTRA
        if faults is not None and faults.active:
            copies = faults.plan(self.name, receiver.name)
            if copies is None:
                channel.messages_lost += 1
                return
        kernel = network.kernel
        base = network.latency.base
        for extra in copies:
            arrival = kernel.clock._now + base + extra
            if arrival < receiver._last_arrival:
                arrival = receiver._last_arrival
            else:
                receiver._last_arrival = arrival
            kernel.schedule_at(arrival, receiver._deliver, message)

    def close(self) -> None:
        """Close the whole channel; the peer's close handler is notified.

        Closing an already-closed endpoint is a no-op (both sides of a dying
        connection often race to close).
        """
        self._channel.close(initiator=self)

    # ------------------------------------------------------------------
    # delivery (scheduled by the peer's send)
    # ------------------------------------------------------------------

    def _deliver(self, message: Any) -> None:
        if not self.open:
            return  # connection severed while the message was in flight
        self._channel.messages_delivered += 1
        handler = self._on_message
        if handler is None:
            self._inbox_while_unset.append(message)
        else:
            handler(message)

    def _notify_close(self) -> None:
        # In-flight messages are dropped on close; that includes messages
        # already delivered into the pre-handler buffer but never consumed —
        # a handler installed after the close must not see stale traffic.
        self._inbox_while_unset.clear()
        if self._on_close is not None:
            self._on_close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else "closed"
        return f"Endpoint({self.name!r}, {state})"


class Channel:
    """A connected pair of endpoints: shared open state, counters, teardown."""

    __slots__ = ("id", "_network", "open", "client_endpoint", "server_endpoint",
                 "messages_sent", "messages_delivered", "messages_lost")

    def __init__(self, network: "Network", ordinal: int, client_name: str, server_name: str) -> None:
        #: The network's connection ordinal, not a process-wide count: error
        #: texts naming a channel depend on its own station's history only.
        self.id = ordinal
        self._network = network
        self.open = True
        self.client_endpoint = Endpoint(self, client_name)
        self.server_endpoint = Endpoint(self, server_name)
        self.client_endpoint._peer = self.server_endpoint
        self.server_endpoint._peer = self.client_endpoint
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_lost = 0

    def close(self, initiator: Optional[Endpoint] = None) -> None:
        """Tear down the channel, notifying the non-initiating side(s)."""
        if not self.open:
            return
        self.open = False
        for endpoint in (self.client_endpoint, self.server_endpoint):
            endpoint.open = False
            # Undelivered pre-handler buffers die with the connection (the
            # initiator's too — _notify_close only runs on the other side).
            endpoint._inbox_while_unset.clear()
            if endpoint is not initiator:
                # Close notification crosses the network like data does,
                # but is immune to the fault model: teardown is surfaced by
                # the local OS (RST / broken pipe), not by lossy packets.
                network = self._network
                network.kernel.schedule_after(network.latency.sample(), endpoint._notify_close)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else "closed"
        return (
            f"Channel#{self.id}({self.client_endpoint.name!r}<->"
            f"{self.server_endpoint.name!r}, {state})"
        )
