"""Property test: what a client receives is access-pattern transparent.

A standalone client decodes each delivery from the wire's memo or from the
envelope its scan vouched for.  The contract: *no matter which subset of a
message a consumer touches — nothing, one field, its class, or the whole
message — the observable world is identical to full parsing* (the
full-parse reference, ``tests/differential.py``).  That covers the
delivered messages themselves, and the broker's routed/dropped counters,
which must not depend on what receivers later do with their mail.

Hypothesis drives random message batches through a live broker with two
attached clients under every access pattern, as-is and under the
reference, and compares everything observable.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.broker import BusBroker
from repro.bus.client import BusClient
from repro.procmgr.manager import ProcessManager
from repro.procmgr.process import ProcessSpec, constant_work
from repro.sim.kernel import Kernel
from repro.transport.network import Network
from repro.xmlcmd.commands import (
    CommandMessage,
    Message,
    PingReply,
    PingRequest,
    TelemetryFrame,
    encode_message,
)
from tests.differential import REFERENCES

_NAME = st.sampled_from(["alpha", "beta", "fd", "rec", "pbcom"])
_SEQ = st.integers(min_value=0, max_value=10**9)
_VERB = st.sampled_from(["attach", "track", "noop", "resync"])
_PARAMS = st.dictionaries(
    st.sampled_from(["az", "el", "rate"]),
    st.text(st.characters(codec="ascii", exclude_characters='<>&"\x00'), max_size=8),
    max_size=2,
)

_MESSAGE = st.one_of(
    st.builds(PingRequest, _NAME, st.sampled_from(["rx-a", "rx-b", "ghost"]), _SEQ),
    st.builds(PingReply, _NAME, st.sampled_from(["rx-a", "rx-b"]), _SEQ),
    st.builds(
        CommandMessage, _NAME, st.sampled_from(["rx-a", "rx-b"]), _VERB, _PARAMS
    ),
    st.builds(
        TelemetryFrame,
        _NAME,
        st.sampled_from(["rx-a", "rx-b"]),
        st.just("opal"),
        st.sampled_from(["p1", "p9"]),
        st.integers(min_value=0, max_value=10**6),
    ),
)

#: How a receiving client inspects its mail.  "none" never touches the
#: message (a relay/counter); "partial" reads one routing field; "kind"
#: reads only its class; "full" keeps the whole message, compared
#: class-strictly with the reference's.
ACCESS_PATTERNS = ("none", "partial", "kind", "full")


def _observe(message: Message, pattern: str):
    if pattern == "none":
        return "untouched"
    if pattern == "partial":
        return message.sender
    if pattern == "kind":
        return type(message).__name__
    return message


def _run_batch(wires, pattern: str):
    kernel = Kernel(seed=31)
    network = Network(kernel)
    manager = ProcessManager(kernel)
    process = manager.spawn(
        ProcessSpec("mbus", constant_work(0.2), lambda p: BusBroker(p, network))
    )
    manager.start("mbus")
    kernel.run()
    broker = process.behavior

    observations = {}
    clients = {}
    for name in ("rx-a", "rx-b"):
        client = BusClient(kernel, network, name)
        client.connect()
        observations[name] = []
        clients[name] = client

        def handler(message, _name=name):
            observations[_name].append(_observe(message, pattern))

        client.on_message(handler)
    sender = BusClient(kernel, network, "tx")
    sender.connect()
    kernel.run(until=kernel.now + 1.0)

    for wire in wires:
        # Raw endpoint send: the canonical wire bytes, no client-side
        # re-serialization in the loop.
        sender._endpoint.send(wire)
    kernel.run(until=kernel.now + 5.0)

    # Whatever was stored in .received must equal the reference's, even for
    # the "none" pattern where no handler ever looked at it.
    stored = {name: clients[name].received for name in clients}
    return {
        "routed": broker.routed,
        "dropped": broker.dropped,
        "observations": observations,
        "stored": stored,
    }


@settings(max_examples=25, deadline=None)
@given(st.lists(_MESSAGE, min_size=1, max_size=12))
def test_deliveries_match_fullparse_under_every_access_pattern(messages):
    wires = [encode_message(m) for m in messages]
    for pattern in ACCESS_PATTERNS:
        fast = _run_batch(wires, pattern)
        with REFERENCES["full-parse"].patch():
            reference = _run_batch(wires, pattern)
        assert fast == reference, f"divergence under access pattern {pattern!r}"


@settings(max_examples=25, deadline=None)
@given(st.lists(_MESSAGE, min_size=1, max_size=12))
def test_access_pattern_never_changes_broker_counters(messages):
    """Routing happened before delivery: what a receiver does (or doesn't)
    with a message cannot move the broker's counters."""
    wires = [encode_message(m) for m in messages]
    reference = None
    for pattern in ACCESS_PATTERNS:
        result = _run_batch(wires, pattern)
        counters = (result["routed"], result["dropped"], result["stored"])
        if reference is None:
            reference = counters
        else:
            assert counters == reference, f"pattern {pattern!r} moved the counters"
