"""The inventory of a bus hop: three transport frames, and 53 events in two rounds.

A delivered message costs exactly the Python frames under
``repro/transport/`` that DESIGN.md §10's per-hop table lists
(``Endpoint.send``, ``LatencyModel.sample``, ``Endpoint._deliver``), once
each, and a healthy tree-V station with its application traffic silenced
executes exactly the table's kernel events per two ping rounds (REC's FD
deadline fires once per two rounds, so the count is stated over an even
number of rounds).  A wrapper
someone adds to the send or deliver path later, or a timer added to the
ping fabric, then shows up here as a failing count — and gets added to the
table on purpose — rather than as a slow drift in ``fleet-waves``.

The same holds for application traffic a station does not need: an
availability run's ses tracks only the satellite in view, and the run's
kernel-event count is pinned so tracking between passes cannot come back
unnoticed.
"""

import collections
import os
import pathlib
import re
import sys

from repro.experiments import availability
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_v

ROOT = pathlib.Path(__file__).resolve().parent.parent

ROUNDS = 10  # even: the table counts two rounds


def _design_tables():
    """``(frames, events per two rounds)`` as DESIGN.md §10 states them."""
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = design.split("\n## 10.", 1)[1].split("\n## 11.", 1)[0]
    frames = set()
    parts = []
    total = None
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("| hop frame") and not cells[-1].startswith("gone"):
            frames.update(re.findall(r"`(\w+\.\w+)`", cells[0]))
        elif line.startswith("| round events"):
            parts.append(int(cells[1]))
        elif line.startswith("| round total"):
            total = int(re.match(r"\*\*(\d+)\*\*", cells[1]).group(1))
    assert total == sum(parts), "DESIGN.md §10: the per-round rows do not add up"
    return frames, total


def test_a_hop_is_three_transport_frames_and_a_round_is_the_tables_events():
    frames, events_per_two_rounds = _design_tables()
    assert frames == {"Endpoint.send", "LatencyModel.sample", "Endpoint._deliver"}

    # solution_period: ses's tracking loop is the station's only periodic
    # application traffic; parked, every event left is the ping fabric's.
    station = MercuryStation(tree=tree_v(), seed=3, solution_period=1e6)
    station.boot()
    station.run_for(4.5)  # past boot's stragglers, to mid-round
    transport = os.path.join("repro", "transport", "")
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and transport in frame.f_code.co_filename:
            calls[frame.f_code.co_qualname] += 1

    kernel = station.kernel
    period = station.fd.ping_period
    executed = kernel.events_executed
    delivered = _delivered(station)
    sys.setprofile(profile)
    try:
        station.run_for(ROUNDS * period)
    finally:
        sys.setprofile(None)
    delivered = _delivered(station) - delivered

    assert delivered > 0
    assert calls == dict.fromkeys(frames, delivered)
    assert kernel.events_executed - executed == ROUNDS // 2 * events_per_two_rounds


def _delivered(station) -> int:
    """Messages delivered so far on the channels a healthy station keeps
    open: every component's bus connection, and FD's control channel."""
    endpoints = [station.fd._ctl] + [
        process.behavior._endpoint
        for process in station.manager.processes()
        if getattr(process.behavior, "_endpoint", None) is not None
    ]
    return sum(endpoint._channel.messages_delivered for endpoint in endpoints)


#: Kernel events of the determinism gate's availability run (tree V, 4 h,
#: seed 7): two passes, Opal from ~2 400 s and Sapphire from ~8 280 s.  ses
#: commanding str and rtu between them (an always-in-view satellite) makes
#: it 536.
AVAILABILITY_RUN_EVENTS = 391


def test_an_availability_run_tracks_only_the_passes_in_view(monkeypatch):
    stations = []

    class Recording(availability.PassAccountant):
        def __init__(self, station, windows):
            super().__init__(station, windows)
            stations.append(station)

    monkeypatch.setattr(availability, "PassAccountant", Recording)
    result = availability.measure_availability(tree_v(), horizon_s=4 * 3600.0, seed=7)
    (station,) = stations
    assert result.passes == 2
    # ses solves every 600 s there; one solve lands in each pass.
    assert station.manager.get("ses").behavior.solutions_sent == 2
    assert station.kernel.events_executed == AVAILABILITY_RUN_EVENTS
