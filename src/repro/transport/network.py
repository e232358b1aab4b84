"""The simulated network fabric.

A :class:`Network` is a connection factory: listeners bind string addresses
(``"mbus:7000"``), and :meth:`Network.connect` establishes a bidirectional
:class:`~repro.transport.channel.Channel` pair with the listener's accept
callback.  Message propagation delay comes from a :class:`LatencyModel`.

The ground station runs on one LAN, so the default latency is small and
uniform; the model is pluggable so experiments can study how detection time
(and therefore MTTR) degrades on a slower network (ablation bench).

On top of the latency model sits an optional :class:`NetworkFaultModel`: a
deterministic, per-link fabric of drops, delay spikes, duplication, and
timed bidirectional partitions.  Every link draws from its own named RNG
stream, so a chaos run that degrades the network replays bit-identically
from its seed.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import AddressInUseError, ConnectionRefusedError_
from repro.obs import events as ev
from repro.transport.channel import Channel, Endpoint
from repro.transport.sockets import Listener
from repro.types import Severity, SimTime

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.sim.kernel import Kernel


class LatencyModel:
    """Per-message propagation delay: ``base + U(0, jitter)`` seconds.

    The defaults (0.2 ms base, 0.1 ms jitter) approximate a quiet switched
    LAN — negligible against seconds-scale restarts, as in the paper.

    A nonzero ``jitter`` requires an RNG: jitter is *sampled*, and sampling
    without a named stream would silently degrade to the constant base
    delay (and break seed-determinism if patched with a global RNG).
    :class:`Network` wires its ``"transport.latency"`` stream into a model
    that was built without one.
    """

    def __init__(
        self,
        base: SimTime = 0.0002,
        jitter: SimTime = 0.0001,
        rng: Optional[random.Random] = None,
    ) -> None:
        if base < 0 or jitter < 0:
            raise ValueError("latency parameters must be non-negative")
        self.base = base
        self.jitter = jitter
        self._rng = rng

    def bind_rng(self, rng: random.Random) -> None:
        """Supply the RNG stream if the model was constructed without one."""
        if self._rng is None:
            self._rng = rng

    def sample(self) -> SimTime:
        """Draw the delay for one message."""
        if self.jitter == 0:
            return self.base
        if self._rng is None:
            raise ValueError(
                "LatencyModel has jitter > 0 but no RNG stream; pass rng= or "
                "attach the model to a Network (which binds its named stream)"
            )
        # uniform(0, j) is a + (b-a)*random() with a=0: algebraically and
        # bit-identically j*random(), minus a method call on the hot path.
        return self.base + self.jitter * self._rng.random()


class LinkProfile:
    """Degradation parameters for one link (or the default for all links).

    ``drop_probability`` loses a message outright; ``spike_probability``
    adds ``U(*spike_seconds)`` of extra one-way delay; ``duplicate_
    probability`` delivers a second copy, trailing the first by up to
    ``duplicate_lag`` seconds.  FIFO ordering per direction is preserved by
    the channel's arrival clamp, matching TCP semantics: loss and delay
    manifest to the application as *stalls*, duplication as repeated
    payloads (the bus protocol is idempotent for pings).
    """

    def __init__(
        self,
        drop_probability: float = 0.0,
        spike_probability: float = 0.0,
        spike_seconds: Tuple[float, float] = (0.05, 0.25),
        duplicate_probability: float = 0.0,
        duplicate_lag: float = 0.005,
    ) -> None:
        for name, value in (
            ("drop_probability", drop_probability),
            ("spike_probability", spike_probability),
            ("duplicate_probability", duplicate_probability),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if spike_seconds[0] < 0 or spike_seconds[1] < spike_seconds[0]:
            raise ValueError(f"invalid spike_seconds range {spike_seconds!r}")
        if duplicate_lag < 0:
            raise ValueError("duplicate_lag must be non-negative")
        self.drop_probability = drop_probability
        self.spike_probability = spike_probability
        self.spike_seconds = spike_seconds
        self.duplicate_probability = duplicate_probability
        self.duplicate_lag = duplicate_lag

    @property
    def active(self) -> bool:
        """Whether this profile perturbs traffic at all."""
        return (
            self.drop_probability > 0
            or self.spike_probability > 0
            or self.duplicate_probability > 0
        )


def link_key(a: str, b: str) -> Tuple[str, str]:
    """Normalize two endpoint names into an unordered link key.

    Endpoint names are component names on the client side and bound
    addresses (``"mbus:7000"``) on the server side; the address prefix *is*
    the component name, so stripping the port yields component-level links
    regardless of which side initiated the connection.
    """
    a = a.split(":", 1)[0]
    b = b.split(":", 1)[0]
    return (a, b) if a <= b else (b, a)


class NetworkFaultModel:
    """Deterministic per-link drops, delay spikes, duplication, partitions.

    The model is *inert by default*: with no degradation or partition
    configured, :meth:`plan` is never consulted and no RNG stream is drawn,
    so wiring a fault model into a station changes nothing about a clean
    run's trace.  Each link draws from its own named stream
    (``netfault.<a>~<b>``), so fault decisions on one link never perturb
    another link's sequence — the property that makes lossy chaos runs
    replay bit-identically.

    Partitions are bidirectional and component-named: ``partition("fd",
    "mbus", 10.0)`` silences both directions of the fd↔mbus link (including
    new connection attempts) and heals itself after the duration.
    Connection *teardown* notifications remain reliable — an abrupt close
    is surfaced by the local OS, not by packets crossing the fabric.
    """

    _NO_EXTRA = (0.0,)

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self._default: Optional[LinkProfile] = None
        self._profiles: Dict[Tuple[str, str], LinkProfile] = {}
        #: Links shielded from the *default* profile (see :meth:`exempt_link`).
        self._exempt: set = set()
        #: Link key -> partition end time.
        self._partitions: Dict[Tuple[str, str], SimTime] = {}
        #: Epochs guard scheduled auto-heals against manual overrides.
        self._degrade_epochs: Dict[Tuple[str, str], int] = {}
        self._partition_epochs: Dict[Tuple[str, str], int] = {}
        #: Fast-path flag read once per message by ``Endpoint.send``: whether
        #: any fault could currently apply.  Maintained by
        #: :meth:`_refresh_active` wherever the tables it summarises change.
        self.active = False
        # Diagnostics.
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_spiked = 0
        self.partition_blocked = 0
        self.connects_refused = 0

    # ------------------------------------------------------------------
    # configuration (scriptable from chaos scenarios)
    # ------------------------------------------------------------------

    def _refresh_active(self) -> None:
        self.active = bool(
            self._profiles or self._partitions or self._default is not None
        )

    def degrade(
        self,
        a: str = "*",
        b: str = "*",
        duration: Optional[SimTime] = None,
        drop: float = 0.0,
        spike_probability: float = 0.0,
        spike_seconds: Tuple[float, float] = (0.05, 0.25),
        duplicate_probability: float = 0.0,
    ) -> None:
        """Degrade one link (or, with ``"*"``, the default for all links).

        With ``duration`` set, the degradation heals itself; re-degrading
        the same link supersedes any pending heal.
        """
        profile = LinkProfile(
            drop_probability=drop,
            spike_probability=spike_probability,
            spike_seconds=spike_seconds,
            duplicate_probability=duplicate_probability,
        )
        key = self._degrade_key(a, b)
        if key is None:
            self._default = profile
        else:
            self._profiles[key] = profile
        self._refresh_active()
        epoch = self._degrade_epochs.get(key, 0) + 1
        self._degrade_epochs[key] = epoch
        self.kernel.trace.emit(
            "net",
            ev.NET_LINK_DEGRADED,
            severity=Severity.WARNING,
            link=self._link_label(key),
            drop=drop,
            spike_probability=spike_probability,
            duplicate_probability=duplicate_probability,
            duration=duration,
        )
        if duration is not None:
            self.kernel.schedule_after(duration, self._auto_restore, key, epoch)

    def exempt_link(self, a: str, b: str) -> None:
        """Shield the ``a``↔``b`` link from the wildcard default profile.

        A degrade/partition *naming* the link still applies — exemption
        models links that are not on the faulted fabric at all (e.g. the
        FD↔REC control channel, which is host-local IPC between co-located
        supervisor processes, not station-LAN traffic).
        """
        self._exempt.add(link_key(a, b))

    def restore(self, a: str = "*", b: str = "*") -> None:
        """Remove the degradation on one link (or the default profile)."""
        key = self._degrade_key(a, b)
        self._degrade_epochs[key] = self._degrade_epochs.get(key, 0) + 1
        self._restore(key)

    def partition(self, a: str, b: str, duration: SimTime) -> None:
        """Silence both directions of the ``a``↔``b`` link for ``duration``."""
        if duration <= 0:
            raise ValueError("partition duration must be positive")
        key = link_key(a, b)
        until = self.kernel.now + duration
        self._partitions[key] = until
        self._refresh_active()
        epoch = self._partition_epochs.get(key, 0) + 1
        self._partition_epochs[key] = epoch
        self.kernel.trace.emit(
            "net",
            ev.NET_PARTITION_BEGIN,
            severity=Severity.WARNING,
            link=self._link_label(key),
            until=until,
        )
        self.kernel.schedule_after(duration, self._auto_heal, key, epoch)

    def heal(self, a: str, b: str) -> None:
        """End the ``a``↔``b`` partition early (no-op when not partitioned)."""
        key = link_key(a, b)
        self._partition_epochs[key] = self._partition_epochs.get(key, 0) + 1
        self._heal(key)

    def clear(self) -> None:
        """Restore every degraded link and heal every partition."""
        for key in list(self._profiles):
            self._degrade_epochs[key] = self._degrade_epochs.get(key, 0) + 1
            self._restore(key)
        if self._default is not None:
            none_key = self._degrade_key("*", "*")
            self._degrade_epochs[none_key] = self._degrade_epochs.get(none_key, 0) + 1
            self._restore(none_key)
        for key in list(self._partitions):
            self._partition_epochs[key] = self._partition_epochs.get(key, 0) + 1
            self._heal(key)

    # ------------------------------------------------------------------
    # queries (consulted by Endpoint.send and Network)
    # ------------------------------------------------------------------

    def is_partitioned(self, a: str, b: str) -> bool:
        """Whether the (normalized) link between ``a`` and ``b`` is cut."""
        until = self._partitions.get(link_key(a, b))
        return until is not None and self.kernel.now < until

    def plan(self, a: str, b: str) -> Optional[Tuple[float, ...]]:
        """Decide the fate of one message on the ``a``→``b`` link.

        Returns ``None`` when the message is lost (dropped or partitioned),
        else a tuple of extra one-way delays — one entry per delivered copy
        (two entries when the message is duplicated).
        """
        key = link_key(a, b)
        until = self._partitions.get(key)
        if until is not None and self.kernel.now < until:
            self.partition_blocked += 1
            return None
        profile = self._profiles.get(key)
        if profile is None and key not in self._exempt:
            profile = self._default
        if profile is None or not profile.active:
            return self._NO_EXTRA
        rng = self.kernel.rngs.stream(f"netfault.{key[0]}~{key[1]}")
        if profile.drop_probability > 0 and rng.random() < profile.drop_probability:
            self.messages_dropped += 1
            return None
        extra = 0.0
        if profile.spike_probability > 0 and rng.random() < profile.spike_probability:
            extra = rng.uniform(*profile.spike_seconds)
            self.messages_spiked += 1
        if (
            profile.duplicate_probability > 0
            and rng.random() < profile.duplicate_probability
        ):
            self.messages_duplicated += 1
            return (extra, extra + rng.uniform(0.0, profile.duplicate_lag))
        return (extra,)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    @staticmethod
    def _degrade_key(a: str, b: str) -> Optional[Tuple[str, str]]:
        if a == "*" or b == "*":
            return None
        return link_key(a, b)

    @staticmethod
    def _link_label(key: Optional[Tuple[str, str]]) -> str:
        return "*" if key is None else f"{key[0]}~{key[1]}"

    def _auto_restore(self, key: Optional[Tuple[str, str]], epoch: int) -> None:
        if self._degrade_epochs.get(key) != epoch:
            return  # superseded by a later degrade/restore on this link
        self._restore(key)

    def _restore(self, key: Optional[Tuple[str, str]]) -> None:
        if key is None:
            if self._default is None:
                return
            self._default = None
        elif self._profiles.pop(key, None) is None:
            return
        self._refresh_active()
        self.kernel.trace.emit("net", ev.NET_LINK_RESTORED, link=self._link_label(key))

    def _auto_heal(self, key: Tuple[str, str], epoch: int) -> None:
        if self._partition_epochs.get(key) != epoch:
            return  # superseded by a later partition/heal on this link
        self._heal(key)

    def _heal(self, key: Tuple[str, str]) -> None:
        if self._partitions.pop(key, None) is None:
            return
        self._refresh_active()
        self.kernel.trace.emit("net", ev.NET_PARTITION_END, link=self._link_label(key))


class Network:
    """Registry of listeners plus the connection factory.

    Example
    -------
    A component binds an address and accepts connections::

        listener = network.listen("pbcom:9000", on_accept)

    A client connects, obtaining its endpoint (the accept callback receives
    the server-side endpoint)::

        endpoint = network.connect("fedr", "pbcom:9000")

    A client that keeps trying until its peer is up runs a *dial loop*:
    :meth:`dial` is the attempt, :meth:`redial` arranges the next one, and
    :meth:`hang_up` ends the loop when the client dies (DESIGN.md §10,
    "Dialling: park, don't poll").
    """

    def __init__(
        self,
        kernel: "Kernel",
        latency: Optional[LatencyModel] = None,
        faults: Optional[NetworkFaultModel] = None,
    ) -> None:
        self.kernel = kernel
        self.latency = latency or LatencyModel(
            rng=kernel.rngs.stream("transport.latency")
        )
        # A caller-supplied model with jitter but no RNG gets the named
        # stream instead of silently (or loudly) failing to sample.
        self.latency.bind_rng(kernel.rngs.stream("transport.latency"))
        #: Optional fault fabric; ``None`` means a perfectly quiet network.
        self.faults = faults
        self._listeners: Dict[str, Listener] = {}
        #: Dial loops waiting for an address to be bound: address →
        #: ``(client_name, tick, interval, callback)`` tickets, ``tick`` being
        #: the next instant of the loop's retry grid.  A list, not one per
        #: client: one client can run several loops on different phases.
        self._parked: Dict[str, List[Tuple[str, SimTime, SimTime, Callable[[], None]]]] = {}
        self._connections_established = 0

    @property
    def connections_established(self) -> int:
        """Total successful :meth:`connect` calls (diagnostics)."""
        return self._connections_established

    @property
    def dials_parked(self) -> int:
        """Dial loops waiting for an address to be bound (diagnostics)."""
        return sum(len(parked) for parked in self._parked.values())

    def listen(
        self, address: str, on_accept: Callable[[Endpoint], None]
    ) -> Listener:
        """Bind ``address`` and invoke ``on_accept(endpoint)`` per connection.

        Dial loops parked on the address resume, each at the first instant
        of its own retry grid that is not in the past.
        """
        if address in self._listeners:
            raise AddressInUseError(f"address {address!r} already bound")
        listener = Listener(self, address, on_accept)
        self._listeners[address] = listener
        now = self.kernel.now
        for _, tick, interval, callback in self._parked.pop(address, ()):
            # Repeated addition, as a chain of timers would have computed
            # it: ``tick + k * interval`` rounds differently.
            while tick < now:
                tick += interval
            self.kernel.schedule_at(tick, callback)
        return listener

    def unbind(self, address: str) -> None:
        """Remove a listener binding (no-op if absent)."""
        self._listeners.pop(address, None)

    def is_bound(self, address: str) -> bool:
        """Whether a listener is currently bound to ``address``."""
        return address in self._listeners

    def connect(self, client_name: str, address: str) -> Endpoint:
        """Establish a connection to ``address``; returns the client endpoint.

        Raises :class:`~repro.errors.ConnectionRefusedError_` when nothing is
        listening — exactly what a component experiences when it starts while
        its peer is still down, which drives the dial loops in the Mercury
        components' startup sequences.
        """
        if self.faults is not None and self.faults.is_partitioned(client_name, address):
            # SYNs die in the partition: indistinguishable from a dead peer.
            self.faults.connects_refused += 1
            raise ConnectionRefusedError_(
                f"{client_name!r} -> {address!r}: network partitioned"
            )
        listener = self._listeners.get(address)
        if listener is None or not listener.open:
            raise ConnectionRefusedError_(
                f"{client_name!r} -> {address!r}: connection refused"
            )
        self._connections_established += 1
        channel = Channel(
            self, self._connections_established, client_name, listener.address
        )
        listener.accept(channel.server_endpoint)
        return channel.client_endpoint

    # ------------------------------------------------------------------
    # dial loops
    # ------------------------------------------------------------------

    def dial(self, client_name: str, address: str) -> Optional[Endpoint]:
        """One attempt of a dial loop: :meth:`connect`, or ``None`` if refused."""
        try:
            return self.connect(client_name, address)
        except ConnectionRefusedError_:
            return None

    def redial(
        self,
        client_name: str,
        address: str,
        interval: SimTime,
        callback: Callable[[], None],
    ) -> None:
        """Arrange a dial loop's next attempt, ``interval`` from now.

        While nothing is bound to ``address`` the attempt could only be
        refused again, so instead of a timer it leaves a ticket that
        :meth:`listen` redeems on the same ``interval`` grid — the attempt
        that connects happens at the instant a polling loop's would have,
        and none of the refused ones in between happen at all.  A dial into
        a partition keeps its timer: a heal is not a ``listen``, and
        ``connects_refused`` counts those attempts.

        ``callback`` must be a bound method of the dialling object (never a
        closure), so that a deep-copied network's tickets and timers belong
        to the copy.
        """
        faults = self.faults
        if address in self._listeners or (
            faults is not None and faults.is_partitioned(client_name, address)
        ):
            self.kernel.schedule_after(interval, callback)
        else:
            self._parked.setdefault(address, []).append(
                (client_name, self.kernel.now + interval, interval, callback)
            )

    def hang_up(self, client_name: str) -> None:
        """Drop every ticket ``client_name`` has parked (its process died).

        A restarted incarnation dials on a grid of its own, from its own
        start time — not on the dead one's.
        """
        for parked in self._parked.values():
            parked[:] = [ticket for ticket in parked if ticket[0] != client_name]
