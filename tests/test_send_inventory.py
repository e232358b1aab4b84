"""The inventory of a command's send half: three codec frames, no escape.

A clean command — every user request, every service reply, the station's
own track/tune/sync traffic — costs exactly the Python frames under
``repro/xmlcmd/`` that DESIGN.md §8's "sender encode" cell lists
(``encode_message`` → ``encode_command_wire`` → ``vouch``), once each, and
never an ``escape_text`` / ``escape_attr`` frame: its start tag and param
names were decided when they entered the encoder's caches, and its values
hold nothing to escape.  A helper someone adds to the encoder later shows
up here as a failing count, and gets added to the cell on purpose.
"""

import collections
import os
import pathlib
import re
import sys

from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_v
from repro.workload.generator import WorkloadSpec
from repro.workload.plane import WorkloadPlane
from repro.xmlcmd.commands import CommandMessage

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _design_chain():
    """The frames DESIGN.md §8's "sender encode" cell names for a command."""
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = design.split("\n## 8.", 1)[1].split("\n## 9.", 1)[0]
    (row,) = [line for line in section.splitlines() if line.startswith("| sender encode")]
    command_cell = [cell.strip() for cell in row.strip("|").split("|")][2]
    chain = re.match(r"(`\w+`(?: → `\w+`)*)", command_cell)
    assert chain, "DESIGN.md §8: the command cell must open with its frame chain"
    return re.findall(r"`(\w+)`", chain.group(1))


def test_a_clean_command_is_three_codec_frames_and_no_escape():
    chain = _design_chain()
    assert chain == ["encode_message", "encode_command_wire", "vouch"]

    station = MercuryStation(tree=tree_v(), seed=3)
    station.boot()
    plane = WorkloadPlane(station, WorkloadSpec(session_rate=20.0))
    plane.start()
    kernel = station.kernel
    kernel.run(until=kernel.now + 5.0)  # every start tag and param name seen

    xmlcmd = os.path.join("repro", "xmlcmd", "")
    sends = []
    open_send = []

    def profile(frame, event, arg):
        code = frame.f_code
        if xmlcmd not in code.co_filename:
            return
        if event == "call":
            if (
                code.co_name == "encode_message"
                and frame.f_locals["message"].__class__ is CommandMessage
            ):
                open_send.append((frame, collections.Counter()))
            if open_send:
                open_send[-1][1][code.co_qualname] += 1
        elif event == "return" and open_send and open_send[-1][0] is frame:
            sends.append(open_send.pop()[1])

    served = plane.effects.requests_ok
    sys.setprofile(profile)
    try:
        kernel.run(until=kernel.now + 5.0)
    finally:
        sys.setprofile(None)

    assert plane.effects.requests_ok - served > 50
    assert len(sends) > 100
    expected = dict.fromkeys(chain, 1)
    assert [send for send in sends if send != expected] == []
