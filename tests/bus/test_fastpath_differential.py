"""Differential tests: envelope fast-path routing vs the full-parse reference.

The broker's fast path must be *observationally identical* to full-parse
routing: same routing decisions, same counters, same trace records (kinds,
payloads, and — critically for the paper's timing results — timestamps).
These tests run the same scenario as-is and under the full-parse reference
(``REFERENCES["full-parse"]`` in ``tests/differential.py``: every scanner
refuses, so every message takes the full-parse fallback) and compare
everything.
"""

from contextlib import nullcontext

import pytest

from repro.bus.broker import BusBroker
from repro.experiments.availability import measure_availability
from repro.experiments.recovery import measure_recovery
from repro.mercury.trees import tree_ii, tree_v
from repro.procmgr.manager import ProcessManager
from repro.procmgr.process import ProcessSpec, constant_work
from repro.sim.kernel import Kernel
from repro.transport.network import Network
from repro.xmlcmd.commands import (
    CommandMessage,
    FailureReport,
    PingReply,
    PingRequest,
    RestartOrder,
    TelemetryFrame,
    encode_message,
)
from tests.differential import REFERENCES

#: Every registered message shape plus the adversarial cases the broker has
#: to judge: unroutable targets, broker-addressed non-pings, malformed XML,
#: schema violations, and non-canonical spellings.
SCENARIO_WIRES = [
    encode_message(PingRequest("a", "mbus", 1)),
    encode_message(PingRequest("a", "b", 2)),
    encode_message(PingReply("b", "a", 2)),
    encode_message(CommandMessage("a", "b", "track", {"az": "1.5"})),
    encode_message(CommandMessage("a", "b", "noop")),
    # the user plane's exchange: one-param request, three-param reply
    encode_message(CommandMessage("a", "b", "telemetry-query", {"req": "7"})),
    encode_message(
        CommandMessage(
            "b", "a", "svc-reply", {"req": "7", "svc": "telemetry", "solutions": "3"}
        )
    ),
    encode_message(CommandMessage("a", "b", "track", {"note": 'a&b <"c">', "flag": ""})),
    encode_message(TelemetryFrame("a", "b", "opal", "p7", 512)),
    encode_message(FailureReport("a", "b", ("ses",), 4.5)),
    encode_message(RestartOrder("a", "b", "R_ses", ("ses",), "begin")),
    encode_message(PingRequest("a", "ghost", 3)),  # unroutable
    encode_message(PingReply("a", "mbus", 4)),  # non-ping to the broker
    encode_message(CommandMessage("a", "mbus", "reboot")),  # ditto
    encode_message(TelemetryFrame("a", "mbus", "opal", "p7", 9)),  # ditto
    encode_message(RestartOrder("a", "mbus", "R_x", ("x",), "begin")),  # ditto
    "<not-xml",  # malformed
    '<msg type="ping" from="a" to="mbus" seq="NaN"/>',  # schema violation
    '<msg type="mystery" from="a" to="b"/>',  # unknown kind
    "<msg type='ping' from='a' to='mbus' seq='5'/>",  # non-canonical ping
    # non-canonical commands: refused by the command recogniser, routed
    # (or attached, or dropped) by the full parser
    "<msg type='command' from='a' to='b' verb='noop'/>",
    '<msg to="b" type="command" from="a" verb="noop"><param name="x"> 1 </param></msg>',
    '<msg type="command" from="late" to="mbus" verb="attach" />',
    '<msg type="command" from="a" to="nobody"/>',  # no verb: schema-rejected
    '<msg type="ping" from="a" to="mbus" seq="6"><!-- c --></msg>',  # children path
]


def run_scenario():
    kernel = Kernel(seed=99)
    network = Network(kernel)
    manager = ProcessManager(kernel)
    process = manager.spawn(
        ProcessSpec("mbus", constant_work(0.5), lambda p: BusBroker(p, network, "mbus:7000"))
    )
    manager.start("mbus")
    kernel.run()
    broker = process.behavior

    inboxes = {}
    for name in ("a", "b"):
        endpoint = network.connect(name, "mbus:7000")
        inboxes[name] = []
        endpoint.on_message(inboxes[name].append)
        endpoint.send(
            encode_message(CommandMessage(sender=name, target="mbus", verb="attach"))
        )
    kernel.run()

    sender = network.connect("tap", "mbus:7000")
    sender.on_message(lambda raw: inboxes.setdefault("tap", []).append(raw))
    for wire in SCENARIO_WIRES:
        sender.send(wire)
    kernel.run()

    traces = [
        (r.time, r.source, r.kind, r.severity, tuple(sorted(r.data.items())))
        for r in kernel.trace.records
    ]
    return {
        "routed": broker.routed,
        "dropped": broker.dropped,
        "clients": sorted(broker._clients),
        "inboxes": inboxes,
        "traces": traces,
    }


def test_envelope_routing_is_decision_identical():
    fast = run_scenario()
    with REFERENCES["full-parse"].patch():
        reference = run_scenario()
    assert fast == reference


def test_fast_path_forwards_raw_bytes_untouched():
    """The broker must forward the exact wire string, not a re-serialization."""
    result = run_scenario()
    forwarded = [
        w
        for w in SCENARIO_WIRES
        if ' to="b"' in w and "mystery" not in w  # mystery is schema-rejected
    ]
    assert forwarded and all(w in result["inboxes"]["b"] for w in forwarded)


def test_recovery_outputs_bit_identical():
    """A Table 2/4-style recovery cell at equal seeds: per-trial recovery
    times (the numbers the tables are built from) must not move."""

    def run(mode):
        with mode():
            return measure_recovery(tree_ii(), "rtu", trials=3, seed=17)

    fast = run(nullcontext)
    reference = run(REFERENCES["full-parse"].patch)
    assert fast.samples == reference.samples
    assert fast.phases == reference.phases


@pytest.mark.parametrize("horizon_s", [6 * 3600.0])
def test_availability_outputs_bit_identical(horizon_s):
    """The §8 availability pipeline at equal seeds: the fast path must not
    move a single event timestamp."""

    def run(mode):
        with mode():
            return measure_availability(tree_v(), horizon_s=horizon_s, seed=424)

    fast = run(nullcontext)
    reference = run(REFERENCES["full-parse"].patch)
    assert fast.availability == reference.availability
    assert fast.total_downtime_s == reference.total_downtime_s
    assert fast.outages == reference.outages
    assert fast.phase_breakdown == reference.phase_breakdown
