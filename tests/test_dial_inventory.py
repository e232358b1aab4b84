"""The inventory of dial loops under ``src/repro``: one primitive, no polls.

A component that keeps trying until its peer is up calls ``Network.dial``
for the attempt and ``Network.redial`` for the next one; while nothing is
bound to the address, ``redial`` parks a ticket instead of arming a timer
(DESIGN.md §10, "Dialling: park, don't poll").  A fifth hand-rolled loop —
``except ConnectionRefusedError_`` plus ``call_after(interval, self._retry)``
— would poll a dead address at 4 Hz for as long as the peer is down, which
on a month-scale availability run was a quarter of all kernel events.  It
shows up here as a failing inventory, and the events a joint ``[fedr,
pbcom]`` restart spends dialling are held equal to the section's table.
"""

import ast
import collections
import pathlib

import pytest

from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_iv
from repro.transport.network import Network

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

_TIMERS = {"call_after", "call_at", "call_soon", "schedule_after", "schedule_at"}


def _walk_sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def _enclosing_functions(tree):
    """``{node: qualified name of the function it sits in}`` for handlers
    and calls."""
    owners = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{owner}.{child.name}" if owner else child.name
            elif isinstance(child, (ast.ExceptHandler, ast.Call)):
                owners[child] = owner
            visit(child, name)

    visit(tree, "")
    return owners


def _callee(call):
    return call.func.attr if isinstance(call.func, ast.Attribute) else None


def test_refusals_are_caught_and_redials_scheduled_in_the_one_primitive():
    handlers, redials, timers = [], {}, []
    for module, tree in _walk_sources():
        for node, owner in _enclosing_functions(tree).items():
            if isinstance(node, ast.ExceptHandler):
                if node.type is not None and "ConnectionRefusedError_" in ast.unparse(node.type):
                    handlers.append(f"{module}:{owner}")
            elif _callee(node) == "redial":
                redials[f"{module}:{owner}"] = ast.unparse(node.args[-1])
            elif _callee(node) in _TIMERS:
                timers.append((f"{module}:{owner}", [ast.unparse(arg) for arg in node.args]))

    assert handlers == ["transport/network.py:Network.dial"]
    # The four loops, each handing ``redial`` the bound method that is its
    # own next attempt ...
    assert redials == {
        "bus/client.py:BusClient._schedule_reconnect": "self._reconnect",
        "components/base.py:BusAttachedBehavior._schedule_reconnect": "self._try_connect",
        "detection/detector.py:FailureDetector._schedule_ctl_reconnect": "self._connect_ctl",
        "mercury/components/fedr_component.py:FedrBehavior._schedule_pbcom_retry":
            "self._connect_pbcom",
    }
    # ... and nobody arms a timer for one of those behind the primitive's back.
    attempts = set(redials.values())
    assert [site for site, args in timers if attempts & set(args)] == []
    # The primitive's own timers: the partition retry and the redeemed ticket.
    assert sorted(
        site for site, _ in timers if site.startswith("transport/network.py:Network.")
    ) == ["transport/network.py:Network.listen", "transport/network.py:Network.redial"]


def _design_table():
    """``{row: (polling, parked)}`` as DESIGN.md §10 states the dial events
    of one joint restart."""
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = design.split("\n### Dialling: park, don't poll", 1)[1].split("\n### ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| dial events:"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            rows[cells[0].split(":", 1)[1].strip()] = (int(cells[1]), int(cells[2]))
    return rows


def _joint_restart_dial_events():
    """Drive a tree-IV station through one joint ``[fedr, pbcom]`` restart
    and count what ``fedr``'s loop to ``pbcom`` costs the kernel."""
    log = []
    dial, redial, listen = Network.dial, Network.redial, Network.listen

    def logged_dial(self, client_name, address):
        endpoint = dial(self, client_name, address)
        if (client_name, address) == ("fedr", "pbcom:9000"):
            log.append((self.kernel.now, "connected" if endpoint else "refused"))
        return endpoint

    def logged_redial(self, client_name, address, interval, callback):
        def fired():
            if (client_name, address) == ("fedr", "pbcom:9000"):
                log.append((self.kernel.now, "event"))
            callback()

        redial(self, client_name, address, interval, fired)

    def logged_listen(self, address, on_accept):
        if address == "pbcom:9000":
            log.append((self.kernel.now, "listen"))
        return listen(self, address, on_accept)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "dial", logged_dial)
        patch.setattr(Network, "redial", logged_redial)
        patch.setattr(Network, "listen", logged_listen)
        station = MercuryStation(tree=tree_iv(), seed=3)
        station.boot()
        del log[:]
        failure = station.injector.inject_joint("pbcom", {"fedr", "pbcom"}, kind="joint")
        station.run_until_recovered(failure, timeout=300.0)
        station.run_until_quiescent(timeout=600.0)

    kinds = collections.Counter(kind for _, kind in log)
    assert kinds["listen"] == 1 and kinds["connected"] == 1
    refused_at = min(time for time, kind in log if kind == "refused")
    bound_at = next(time for time, kind in log if kind == "listen")
    assert bound_at - refused_at > 15.0  # fedr is up long before pbcom
    return {
        "dials refused": kinds["refused"],
        "kernel events for the loop between `fedr`'s refusal and `pbcom`'s `listen`": sum(
            1 for time, kind in log if kind == "event" and refused_at < time < bound_at
        ),
        "kernel events for the loop in all": kinds["event"],
    }


def test_a_joint_restart_spends_the_tables_events_on_dialling(polling_dial_reference):
    table = _design_table()
    parked = _joint_restart_dial_events()
    with polling_dial_reference():
        polling = _joint_restart_dial_events()
    assert {row: (polling[row], parked[row]) for row in parked} == table
    # The point of the table: nothing runs for fedr while it waits.
    assert parked["kernel events for the loop between `fedr`'s refusal and `pbcom`'s `listen`"] == 0
    assert parked["kernel events for the loop in all"] == 1
