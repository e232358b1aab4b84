"""Property test: the flat transport against a small reference model.

``Endpoint.send`` and ``Endpoint._deliver`` are the whole message path (no
``Channel.transmit`` / ``Channel._deliver`` between them), and
``NetworkFaultModel.active`` is a maintained flag, not a computed property.
Hypothesis drives random interleavings of ``send`` / ``close`` /
``on_message`` installation / ``degrade`` / ``restore`` / ``partition`` /
``heal`` / ``clear`` and time passing over one connection, and after every
step compares everything observable with :class:`Model` below — what the
transport *means*, in twenty-odd lines:

* per-direction FIFO, and the exact arrival instant of every message;
* the number of latency draws on each direction's own stream,
  ``transport.latency.<sender>~<receiver>`` (the model mirrors the two
  streams, so one draw too many or too few shifts every later arrival on
  that direction and leaves the streams in different states);
* ``messages_sent`` / ``messages_delivered`` / ``messages_lost``;
* in-flight messages dropped on close, a send on a closed channel raising;
* the pre-handler inbox flushed once and cleared on close;
* ``active`` always equal to what the old property computed.

Faults are drawn at probabilities 0 and 1 only (and a zero-width spike
range), so a message's fate is known without mirroring the per-link fault
stream; the probabilistic fabric has ``test_network_faults.py``.

``Endpoint.send`` takes a straight-line branch when no fabric is active;
:func:`test_an_inactive_fabric_is_the_fault_free_hop` holds it to a fabric
that is installed but idle, and to the fault loop run over one on-time
copy.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.errors import ChannelClosedError
from repro.sim.kernel import Kernel
from repro.sim.rng import RngRegistry
from repro.transport.network import Network, NetworkFaultModel

SEED = 99
SIDES = ("client", "server")
#: Each receiving side's link: the endpoint names, sender first.
LINKS = {"server": ("client", "srv:1"), "client": ("srv:1", "client")}


def _streams(rngs):
    """Each receiving side's latency stream in ``rngs``."""
    return {
        side: rngs.stream("transport.latency.{}~{}".format(*link))
        for side, link in LINKS.items()
    }


class Model:
    """What one connection does, with no kernel and no channel."""

    def __init__(self, latency):
        self.rngs = _streams(RngRegistry(SEED))
        self.base, self.jitter = latency.base, latency.jitter
        self.open, self.sent, self.delivered, self.lost = True, 0, 0, 0
        self.flying = {side: [] for side in SIDES}  # receiver -> [(arrival, msg)]
        self.last_arrival = dict.fromkeys(SIDES, 0.0)
        self.handler = dict.fromkeys(SIDES, False)
        self.inbox = {side: [] for side in SIDES}
        self.received = {side: [] for side in SIDES}  # [(time, msg)]
        self.profiles = {}  # "link" / "*" -> (drops, extra delay)
        self.partition_until = None

    def send(self, receiver, message, now):
        self.sent += 1
        profile = self.profiles.get("link", self.profiles.get("*", (False, 0.0)))
        if (self.partition_until is not None and now < self.partition_until) or profile[0]:
            self.lost += 1
            return
        arrival = now + (self.base + self.jitter * self.rngs[receiver].random()) + profile[1]
        arrival = self.last_arrival[receiver] = max(arrival, self.last_arrival[receiver])
        self.flying[receiver].append((arrival, message))

    def advance(self, now):
        for side in SIDES:
            landed = [item for item in self.flying[side] if item[0] <= now]
            del self.flying[side][: len(landed)]
            self.delivered += len(landed)
            if self.handler[side]:
                self.received[side] += landed
            else:
                self.inbox[side] += [message for _, message in landed]

    def install(self, side, now):
        self.handler[side] = True
        self.received[side] += [(now, message) for message in self.inbox[side]]
        self.inbox[side] = []

    def close(self, initiator):
        if self.open:
            self.open = False
            # The one close notification crosses the link to the other side.
            self.rngs["server" if initiator == "client" else "client"].random()
            self.flying = {side: [] for side in SIDES}
            self.inbox = {side: [] for side in SIDES}

    def active(self):
        return bool(self.profiles or self.partition_until is not None)


class _Recorder:
    def __init__(self, kernel):
        self.kernel, self.seen = kernel, []

    def __call__(self, message):
        self.seen.append((self.kernel.now, message))


_STEP = st.one_of(
    st.tuples(st.just("send"), st.sampled_from(SIDES)),
    st.tuples(st.just("send"), st.sampled_from(SIDES)),  # twice: sends are the point
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.00005, 0.00025, 0.001, 0.02, 6.0])),
    st.tuples(st.just("install"), st.sampled_from(SIDES)),
    st.tuples(st.just("close"), st.sampled_from(SIDES)),
    st.tuples(
        st.just("degrade"),
        st.sampled_from(["link", "*"]),
        st.booleans(),
        st.sampled_from([0.0, 0.0, 0.01]),
    ),
    st.tuples(st.just("restore"), st.sampled_from(["link", "*"])),
    st.tuples(st.just("partition"), st.sampled_from([0.0004, 0.01, 5.0])),
    st.tuples(st.just("heal")),
    st.tuples(st.just("clear")),
)


def _old_active_property(faults):
    return bool(faults._profiles or faults._partitions or faults._default is not None)


@settings(max_examples=200, deadline=None)
@given(st.lists(_STEP, min_size=1, max_size=40), st.booleans())
def test_flat_transport_matches_the_reference_model(steps, with_faults):
    kernel = Kernel(seed=SEED)
    faults = NetworkFaultModel(kernel) if with_faults else None
    network = Network(kernel, faults=faults)
    accepted = []
    network.listen("srv:1", accepted.append)
    ends = {"client": network.connect("client", "srv:1")}
    ends["server"] = accepted[0]
    channel = ends["client"]._channel
    recorders = {side: _Recorder(kernel) for side in SIDES}
    model = Model(network.latency)
    link = {"link": ("client", "srv"), "*": ("*", "*")}

    for number, step in enumerate(steps):
        op, now = step[0], kernel.now
        if op == "send":
            receiver = "server" if step[1] == "client" else "client"
            if model.open:
                ends[step[1]].send(number)
                model.send(receiver, number, now)
            else:
                with pytest.raises(ChannelClosedError):
                    ends[step[1]].send(number)
        elif op == "advance":
            kernel.run(until=now + step[1])
            if model.partition_until is not None and kernel.now >= model.partition_until:
                model.partition_until = None  # the auto-heal timer has fired
            model.advance(kernel.now)
        elif op == "install":
            ends[step[1]].on_message(recorders[step[1]])
            model.install(step[1], now)
        elif op == "close":
            ends[step[1]].close()
            model.close(step[1])
        elif faults is None:
            continue
        elif op == "degrade":
            spike = step[3]
            faults.degrade(
                *link[step[1]], drop=1.0 if step[2] else 0.0,
                spike_probability=1.0 if spike else 0.0, spike_seconds=(spike, spike),
            )
            model.profiles[step[1]] = (step[2], spike)
        elif op == "restore":
            faults.restore(*link[step[1]])
            model.profiles.pop(step[1], None)
        elif op == "partition":
            faults.partition("client", "srv:1", step[1])
            model.partition_until = now + step[1]
        elif op == "heal":
            faults.heal("srv", "client")
            model.partition_until = None
        elif op == "clear":
            faults.clear()
            model.profiles, model.partition_until = {}, None

        assert [ends[side].open for side in SIDES] == [model.open, model.open]
        assert channel.open == model.open
        assert (channel.messages_sent, channel.messages_delivered, channel.messages_lost) == (
            model.sent, model.delivered, model.lost
        )
        for side in SIDES:
            assert recorders[side].seen == model.received[side]
            assert ends[side]._inbox_while_unset == model.inbox[side]
            assert ends[side]._last_arrival == model.last_arrival[side]
        if faults is not None:
            assert faults.active == _old_active_property(faults) == model.active()

    # Every draw the transport made, the model made: same stream states.
    for side, stream in _streams(kernel.rngs).items():
        assert stream.getstate() == model.rngs[side].getstate()
    # Whatever was still flying lands, in order, at the instants predicted.
    kernel.run()
    model.advance(float("inf"))
    for side in SIDES:
        if model.handler[side]:
            assert recorders[side].seen == model.received[side]
        delivered = [message for _, message in model.received[side]] + model.inbox[side]
        assert delivered == sorted(delivered)  # per-direction FIFO


class _OneOnTimeCopy(NetworkFaultModel):
    """An idle fabric that claims to be active and plans every message as
    one copy with no extra delay: it drives the fault loop with
    ``copies=(0.0,)``."""

    def __init__(self, kernel):
        super().__init__(kernel)
        self.active = True

    def plan(self, sender, receiver):
        return (0.0,)


_HOP_STEP = st.one_of(
    st.tuples(st.just("send"), st.sampled_from(SIDES)),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.00005, 0.00025, 0.02])),
    st.tuples(st.just("install"), st.sampled_from(SIDES)),
    st.tuples(st.just("close"), st.sampled_from(SIDES)),
)


def _hop_run(make_faults, steps):
    """Everything a connection shows under ``steps``: arrivals, inboxes,
    clamps, counters, and the latency streams' states."""
    kernel = Kernel(seed=SEED)
    network = Network(kernel, faults=make_faults(kernel))
    accepted = []
    network.listen("srv:1", accepted.append)
    ends = {"client": network.connect("client", "srv:1"), "server": accepted[0]}
    recorders = {side: _Recorder(kernel) for side in SIDES}
    for number, (op, arg) in enumerate(steps):
        if op == "send" and ends[arg].open:
            ends[arg].send(number)
        elif op == "advance":
            kernel.run(until=kernel.now + arg)
        elif op == "install":
            ends[arg].on_message(recorders[arg])
        elif op == "close":
            ends[arg].close()
    kernel.run()
    channel = ends["client"]._channel
    return (
        {side: recorders[side].seen for side in SIDES},
        {side: ends[side]._inbox_while_unset for side in SIDES},
        {side: ends[side]._last_arrival for side in SIDES},
        (channel.messages_sent, channel.messages_delivered, channel.messages_lost),
        {side: stream.getstate() for side, stream in _streams(kernel.rngs).items()},
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(_HOP_STEP, min_size=1, max_size=40))
def test_an_inactive_fabric_is_the_fault_free_hop(steps):
    def idle(kernel):
        faults = NetworkFaultModel(kernel)
        assert not faults.active
        return faults

    bare = _hop_run(lambda kernel: None, steps)
    assert _hop_run(idle, steps) == bare
    assert _hop_run(_OneOnTimeCopy, steps) == bare
