"""The inventory of bus receive sites: five, one decoder call per message each.

Every inbound wire is judged by one ``decode_envelope`` call where it is
received — a slot read when the wire carries its encoder's memo, a text
scan otherwise — and by nothing else: no receive site calls a text scanner
(``scan_envelope``, ``split_ping_wire``) of its own.  The standalone
``BusClient`` routes nothing, so it calls no decoder: ``parse_message``
reads a wire's memo or parses its text.  The next receive site is added to
this list and to DESIGN.md §8's per-hop table on purpose rather than by
copying a scan.
"""

import ast
import collections
import importlib
import pathlib
import re
import typing

import pytest

from repro.bus.client import BusClient
from repro.components.base import BusAttachedBehavior
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_v
from repro.transport.channel import Endpoint
from repro.workload.generator import WorkloadSpec
from repro.workload.plane import WorkloadPlane
from repro.xmlcmd import fastpath
from repro.xmlcmd.commands import (
    CommandMessage,
    FailureReport,
    Message,
    PingReply,
    PingRequest,
    RestartOrder,
    TelemetryFrame,
    encode_message,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

DECODER = "decode_envelope"
TEXT_SCANNERS = {"scan_envelope", "split_ping_wire"}

#: Receive site -> the file that defines it.
RECEIVE_SITES = {
    "BusBroker._on_raw": "bus/broker.py",
    "BusAttachedBehavior._on_raw": "components/base.py",
    "FailureDetector._on_raw": "detection/detector.py",
    "FailureDetector._on_ctl_raw": "detection/detector.py",
    "RecoveryModule._on_ctl_raw": "core/recoverer.py",
}


def _codec_calls(node, scope, found):
    """Collect ``found[scope] = [called names]`` for every call of the
    decoder or a text scanner under ``node``, scoped by ``Class.method``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
        elif isinstance(child, ast.Call):
            name = getattr(child.func, "id", getattr(child.func, "attr", None))
            if name == DECODER or name in TEXT_SCANNERS:
                found.setdefault(scope, []).append(name)
        _codec_calls(child, inner, found)


def test_each_receive_site_calls_the_decoder_once_and_nothing_else_does():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.parent == SRC / "xmlcmd":
            continue
        calls = {}
        _codec_calls(ast.parse(path.read_text(encoding="utf-8")), "<module>", calls)
        relative = str(path.relative_to(SRC))
        found.update({scope: (relative, names) for scope, names in calls.items()})
    assert found == {
        site: (path, [DECODER]) for site, path in RECEIVE_SITES.items()
    }


def test_a_live_station_decodes_once_per_delivery():
    """The static count cannot see a site that decodes and then hands the
    wire to another site that decodes again; a healthy station can."""
    decodes = [0]

    def counting(raw):
        decodes[0] += 1
        return fastpath.decode_envelope(raw)

    per_delivery = collections.Counter()
    deliver = Endpoint._deliver

    def counted_deliver(endpoint, message):
        before = decodes[0]
        deliver(endpoint, message)
        handler = endpoint._on_message
        handler = getattr(handler, "func", handler)  # the broker's partial
        per_delivery[handler.__qualname__, decodes[0] - before] += 1

    with pytest.MonkeyPatch.context() as patch:
        for path in set(RECEIVE_SITES.values()):
            module = importlib.import_module("repro." + path[:-3].replace("/", "."))
            patch.setattr(module, DECODER, counting)
        patch.setattr(Endpoint, "_deliver", counted_deliver)
        station = MercuryStation(tree=tree_v(), seed=3)
        station.boot()
        ops = BusClient(station.kernel, station.network, "ops")
        ops.connect()
        station.kernel.run(until=station.kernel.now + 3.0)
        ops.send(PingRequest("ops", "ses", 1))
        ops.send(CommandMessage("ops", "mbus", "reboot"))
        station.kernel.run(until=station.kernel.now + 3.0)
    decoded = {site: n for (site, n) in per_delivery if n}
    assert decoded == dict.fromkeys(RECEIVE_SITES, 1)
    assert all(n == 1 for (site, n) in per_delivery if site in RECEIVE_SITES)


def test_a_live_station_delivers_schema_messages_themselves():
    """What reaches ``on_message`` and ``BusClient`` handlers is the decoded
    message: its ``type()`` is one of the six schema classes, whichever
    decoder judged the wire — the memo or the parser."""
    schema = set(typing.get_args(Message))
    delivered = {"on_message": collections.Counter(), "handler": collections.Counter()}

    def recorder(site, inner=None):
        def record(message):
            delivered[site][type(message)] += 1
            if inner is not None:
                inner(message)

        return record

    station = MercuryStation(tree=tree_v(), seed=3)
    station.boot()
    for process in station.manager.processes():
        if isinstance(process.behavior, BusAttachedBehavior):
            process.behavior.on_message = recorder("on_message", process.behavior.on_message)
    plane = WorkloadPlane(station, WorkloadSpec(session_rate=20.0))
    plane.client.on_message(recorder("handler"))
    ops = BusClient(station.kernel, station.network, "ops")
    ops.on_message(recorder("handler"))
    ops.connect()
    plane.start()
    station.kernel.run(until=station.kernel.now + 2.0)
    for message in (
        PingRequest("ops", "ses", 1),
        CommandMessage("ops", "str", "sync"),
        TelemetryFrame("ops", "ses", "opal", "p7", 512),
        FailureReport("ops", "ses", ("str",), 4.5),
        RestartOrder("ops", "ses", "R_str", ("str",), "begin"),
    ):
        ops.send(message)
    # A command as plain text: routed on the scan's envelope, decoded by
    # the parser.
    ops._endpoint.send(str(encode_message(CommandMessage("ops", "ses", "sync"))))
    station.kernel.run(until=station.kernel.now + 2.0)
    assert plane.effects.requests_ok > 0
    assert set(delivered["on_message"]) == schema - {PingRequest, PingReply}
    assert set(delivered["handler"]) == {CommandMessage, PingReply}


def test_design_per_hop_table_lists_exactly_the_receive_sites():
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = design.split("\n## 8.", 1)[1].split("\n## 9.", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| receive")]
    listed = {name for row in rows for name in re.findall(r"`(\w+\._on\w*raw)`", row)}
    assert listed == set(RECEIVE_SITES)
