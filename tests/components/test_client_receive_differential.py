"""Client-side receive vs the full-parse reference: identical deliveries.

The broker's differential suite (``tests/bus/test_fastpath_differential``)
pins *routing*; this one pins the **client** half of the fast path:
``BusAttachedBehavior._on_raw`` answers pings straight off the wire and
hands non-ping traffic to ``on_message`` decoded from the wire's memo or
from the envelope its scan vouched for, instead of full-parsing it.  A
consumer cannot tell whether the scan or the parser (the full-parse
reference, ``tests/differential.py``) decoded its mail — same messages of
the same classes, same dispatch decisions, same replies on the bus, same
station-level measurements.
"""

from contextlib import nullcontext

from repro.bus.broker import BusBroker
from repro.bus.client import BusClient
from repro.components.base import SVC_REPLY_VERB, BusAttachedBehavior
from repro.experiments.recovery import measure_recovery
from repro.mercury.trees import tree_ii
from repro.procmgr.manager import ProcessManager
from repro.procmgr.process import ProcessSpec, constant_work
from repro.sim.kernel import Kernel
from repro.transport.network import Network
from repro.workload.plane import SERVICE_VERBS
from repro.xmlcmd.commands import (
    CommandMessage,
    FailureReport,
    PingReply,
    PingRequest,
    RestartOrder,
    TelemetryFrame,
)
from tests.differential import REFERENCES


class RecorderBehavior(BusAttachedBehavior):
    """Records everything dispatched to ``on_message``; echoes commands and
    answers the workload verbs the way the station's service endpoints do."""

    def __init__(self, process, network):
        super().__init__(process, network)
        self.messages = []

    def on_message(self, message):
        self.messages.append(message)
        if isinstance(message, CommandMessage) and message.verb == "echo":
            self.send(
                CommandMessage(self.name, message.sender, "echo-reply", message.params)
            )
        elif isinstance(message, CommandMessage) and message.verb in _SERVED:
            self.send(
                CommandMessage(
                    self.name,
                    message.sender,
                    SVC_REPLY_VERB,
                    {
                        "req": message.params.get("req", ""),
                        "svc": _SERVED[message.verb],
                        "served": str(len(self.messages)),
                    },
                )
            )


_SERVED = {verb: op for op, verb in SERVICE_VERBS.items()}

#: Every registered shape a client can receive, canonical and not — the
#: user plane's request for each service included.
TRAFFIC = [
    PingRequest("ops", "rec", 1),
    CommandMessage("ops", "rec", "echo", {"az": "1.5"}),
    CommandMessage("ops", "rec", "track", {"el": "2"}),
    *(
        CommandMessage("ops", "rec", verb, {"req": str(rid)})
        for rid, verb in enumerate(SERVICE_VERBS.values(), start=40)
    ),
    TelemetryFrame("ops", "rec", "opal", "p7", 512),
    FailureReport("ops", "rec", ("ses",), 4.5),
    RestartOrder("ops", "rec", "R_ses", ("ses",), "begin"),
    PingRequest("ops", "rec", 2),
]


def drive():
    kernel = Kernel(seed=4321)
    network = Network(kernel)
    manager = ProcessManager(kernel, contention_coefficient=0.05)
    manager.spawn(
        ProcessSpec(
            "mbus", constant_work(0.5), lambda p: BusBroker(p, network, "mbus:7000")
        )
    )
    recorder = manager.spawn(
        ProcessSpec("rec", constant_work(0.5), lambda p: RecorderBehavior(p, network))
    )
    manager.start_all()
    kernel.run(until=kernel.now + 3.0)
    ops = BusClient(kernel, network, "ops")
    ops.connect()
    kernel.run(until=kernel.now + 0.5)
    for message in TRAFFIC:
        ops.send(message)
        kernel.run(until=kernel.now + 0.5)
    return recorder.behavior, ops


def test_dispatch_and_replies_identical_across_modes():
    fast_rec, fast_ops = drive()
    with REFERENCES["full-parse"].patch():
        full_rec, full_ops = drive()

    # Same messages dispatched (equality is class-strict) and same replies
    # observed on the bus, ping replies included.
    assert fast_rec.messages == full_rec.messages
    assert fast_ops.received == full_ops.received
    assert [m for m in fast_ops.received if isinstance(m, PingReply)]

    # The request/reply exchange the user plane runs: one three-param
    # reply per service, decoded from the wire the service's encoder
    # vouched for.
    replies = [m for m in fast_ops.received if getattr(m, "verb", None) == SVC_REPLY_VERB]
    assert [(m.params["req"], m.params["svc"]) for m in replies] == [
        ("40", "telemetry"),
        ("41", "schedule"),
        ("42", "uplink"),
    ]
    assert all(type(m) is CommandMessage for m in replies)

    # Every shape reached ``on_message`` as the sender's own class, from the
    # flat wires the decoder vouches for (commands, telemetry) and from the
    # child-bearing kinds (failure reports, restart orders) it refuses.
    non_ping = len(TRAFFIC) - 2  # pings never reach on_message
    assert len(fast_rec.messages) == non_ping
    sent = [type(m) for m in TRAFFIC if not isinstance(m, PingRequest)]
    assert [type(m) for m in fast_rec.messages] == sent
    assert [type(m) for m in full_rec.messages] == sent


def test_deliveries_are_interchangeable_with_parsed():
    recorder, _ = drive()
    frames = [m for m in recorder.messages if isinstance(m, TelemetryFrame)]
    assert len(frames) == 1
    assert frames[0] == TelemetryFrame("ops", "rec", "opal", "p7", 512)
    assert frames[0].satellite == "opal"


def test_station_measurements_identical_across_modes():
    def measure(mode):
        with mode():
            return measure_recovery(tree_ii(), "rtu", trials=3, seed=9, snapshot=False)

    fast = measure(nullcontext)
    full = measure(REFERENCES["full-parse"].patch)
    assert fast.samples == full.samples
    assert fast.phases == full.phases
