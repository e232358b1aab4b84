"""The inventory of a bus hop: its transport frames, and 53 events in two rounds.

A delivered message costs exactly the Python frames under
``repro/transport/`` that DESIGN.md §10's per-hop table lists, once each:
a data hop ``Endpoint.send``, ``LatencyModel.sample`` and
``Endpoint._deliver``, a ping hop ``Endpoint.send_base`` and
``Endpoint._deliver``.  A healthy tree-V station with its application
traffic silenced, stepping every ping round (``REFERENCES["every-round"]``),
executes exactly the table's kernel events per two ping rounds (REC's FD
deadline fires once per two rounds, so the count is stated over an even
number of rounds), and the same station as it runs, folding its quiet
rounds while REC's FD deadline sleeps on the fold, executes the table's
folded count: none.  The round that detects a dead rtu steps only rtu's
path as the station runs, and the table's detection rows pin both counts.  A wrapper
someone adds to the send or deliver path later, or a timer added to the
ping fabric, then shows up here as a failing count — and gets added to the
table on purpose — rather than as a slow drift in ``fleet-waves``.

The same holds for application traffic a station does not need: an
availability run's ses tracks only the satellite in view, and the run's
kernel-event count is pinned so tracking between passes cannot come back
unnoticed; a recovery station's ses folds every solve of its track/tune
loop and replays it, refreshes to the radio included (DESIGN.md §9,
"Folded solves"), and the events of thirty solve periods on trees V and
II, folded and stepped (``REFERENCES["every-solve"]``), are pinned beside
it.
"""

import collections
import os
import pathlib
import re
import sys

from repro.experiments import availability
from repro.mercury.station import MercuryStation
from repro.mercury.trees import TREE_BUILDERS, tree_v
from repro.transport.channel import Channel
from tests.differential import REFERENCES

ROOT = pathlib.Path(__file__).resolve().parent.parent

ROUNDS = 10  # even: the table counts two rounds


def _design_tables():
    """``(data-hop frames, ping-hop frames, events per two stepped rounds,
    events per two folded rounds)`` as DESIGN.md §10 states them."""
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = design.split("\n## 10.", 1)[1].split("\n## 11.", 1)[0]
    frames = {"| hop frame": set(), "| ping hop frame": set()}
    parts = []
    total = folded = None
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        prefix = next((p for p in frames if line.startswith(p)), None)
        if prefix is not None and not cells[-1].startswith("gone"):
            frames[prefix].update(re.findall(r"`(\w+\.\w+)`", cells[0]))
        elif line.startswith("| round events"):
            parts.append(int(cells[1]))
        elif line.startswith("| round total"):
            total = int(re.match(r"\*\*(\d+)\*\*", cells[1]).group(1))
        elif line.startswith("| folded round total"):
            folded = int(re.match(r"\*\*(\d+)\*\*", cells[1]).group(1))
    assert total == sum(parts), "DESIGN.md §10: the per-round rows do not add up"
    return frames["| hop frame"], frames["| ping hop frame"], total, folded


def _frame_calls(run):
    """Calls of each function under ``repro/transport/`` during ``run()``."""
    transport = os.path.join("repro", "transport", "")
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and transport in frame.f_code.co_filename:
            calls[frame.f_code.co_qualname] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def _silent_station():
    # solution_period: ses's tracking loop is the station's only periodic
    # application traffic; parked, every event left is the ping fabric's.
    station = MercuryStation(tree=tree_v(), seed=3, solution_period=1e6)
    station.boot()
    station.run_for(4.5)  # past boot's stragglers, to mid-round
    return station


def test_a_ping_hop_is_two_transport_frames_and_a_round_is_the_tables_events(
    monkeypatch,
):
    _, frames, events_per_two_rounds, _ = _design_tables()
    assert frames == {"Endpoint.send_base", "Endpoint._deliver"}

    channels = _recording_channels(monkeypatch)
    with REFERENCES["every-round"].patch():
        station = _silent_station()
        kernel = station.kernel
        period = station.fd.ping_period
        executed = kernel.events_executed
        delivered = _delivered(channels)
        calls = _frame_calls(lambda: station.run_for(ROUNDS * period))
    delivered = _delivered(channels) - delivered

    assert delivered > 0
    assert calls == dict.fromkeys(frames, delivered)
    assert kernel.events_executed - executed == ROUNDS // 2 * events_per_two_rounds


def test_a_folded_station_executes_the_tables_folded_events():
    *_, folded_per_two_rounds = _design_tables()
    station = _silent_station()
    kernel = station.kernel
    executed = kernel.events_executed
    calls = _frame_calls(lambda: station.run_for(ROUNDS * station.fd.ping_period))
    assert kernel.supervision.folded
    assert calls == {}  # no hop at all
    assert kernel.events_executed - executed == ROUNDS // 2 * folded_per_two_rounds


def _detection_round_table():
    """``(events of a detection round with every path stepped, events of
    the same round as it runs)`` as DESIGN.md §10 states them."""
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = design.split("\n## 10.", 1)[1].split("\n## 11.", 1)[0]
    parts = []
    totals = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("| detection round events"):
            parts.append(int(cells[1]))
        elif line.startswith("| detection round total"):
            key = "folded" if "as it runs" in cells[0] else "stepped"
            totals[key] = int(re.match(r"\*\*(\d+)\*\*", cells[1]).group(1))
    assert totals["stepped"] == sum(parts), "DESIGN.md §10: the detection rows do not add up"
    return totals["stepped"], totals["folded"]


def _detection_round_events():
    """The kernel events of the round that detects rtu, dead half a period
    before its tick, from the tick to the round's judge."""
    station = _silent_station()
    kernel = station.kernel
    fd = station.fd
    tick = fd._started_at + fd.ping_period
    while tick < kernel.now + 2 * fd.ping_period:
        tick += fd.ping_period
    kernel.schedule_at(tick - 0.5, station.injector.inject_simple, "rtu")
    kernel.run(until=tick - 1e-6)
    executed = kernel.events_executed
    kernel.run(until=tick + fd.reply_timeout)
    return kernel.events_executed - executed


def test_a_detection_round_steps_only_the_path_in_doubt():
    """rtu is dead at the tick: stepping, the round pings every path; as
    the station runs, the five answered paths take their sequence numbers
    and send nothing, and only rtu's ping (dropped unroutable at mbus) and
    REC's are simulated."""
    stepped, folded = _detection_round_table()
    with REFERENCES["every-round"].patch():
        assert _detection_round_events() == stepped
    assert _detection_round_events() == folded


def test_a_data_hop_is_three_transport_frames(monkeypatch):
    frames, ping_frames, *_ = _design_tables()
    assert frames == {"Endpoint.send", "LatencyModel.sample", "Endpoint._deliver"}

    channels = _recording_channels(monkeypatch)
    # ses commands str and rtu every 2 s: data hops among the pings.
    with REFERENCES["every-round"].patch(), REFERENCES["every-solve"].patch():
        station = MercuryStation(tree=tree_v(), seed=3, solution_period=2.0)
        station.boot()
        station.run_for(4.5)
        delivered = _delivered(channels)
        calls = _frame_calls(lambda: station.run_for(ROUNDS * station.fd.ping_period))
    delivered = _delivered(channels) - delivered

    assert calls["Endpoint.send"] > 0 and calls["Endpoint.send_base"] > 0
    assert calls["LatencyModel.sample"] == calls["Endpoint.send"]
    # A healthy station drops nothing: one send and one delivery a hop.
    assert (
        calls["Endpoint._deliver"]
        == delivered
        == calls["Endpoint.send"] + calls["Endpoint.send_base"]
    )
    assert set(calls) == frames | ping_frames


def _recording_channels(monkeypatch):
    """Every channel opened from now on, as it opens: the messages they
    deliver are every message the station delivers."""
    opened = []
    init = Channel.__init__

    def recording(self, *args):
        init(self, *args)
        opened.append(self)

    monkeypatch.setattr(Channel, "__init__", recording)
    return opened


def _delivered(channels) -> int:
    return sum(channel.messages_delivered for channel in channels)


#: Kernel events of the determinism gate's availability run (tree V, 4 h,
#: seed 7): two passes, Opal from ~2 400 s and Sapphire from ~8 280 s, and
#: 33 restart actions.
AVAILABILITY_RUN_EVENTS = 358


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


#: Kernel events of a healthy station (seed 3; ses solving every 2 s, FD
#: folding its quiet rounds) over thirty solve periods.  Stepped, each
#: solve is five events (the solve, track and tune at mbus, track at str,
#: tune at rtu), and each of the five refreshes rtu forwards adds its
#: chain: on tree V three (radio-set-freq at mbus and at fedr, fedr's
#: command at pbcom), 30 × 5 + 5 × 3; on tree II two (radio-set-freq at
#: mbus and at fedrcom), 30 × 5 + 5 × 2.  Folded, nothing: every solve and
#: every hop of its chain is replayed at the catch-up the kernel makes
#: before it returns.
LOOP_EVENTS = {
    "V": {"stepped": 165, "folded": 0},
    "II": {"stepped": 160, "folded": 0},
}
SOLVE_PERIODS = 30


def _loop_events(tree):
    station = MercuryStation(tree=TREE_BUILDERS[tree](), seed=3)
    station.boot()
    station.run_for(4.5)
    kernel = station.kernel
    executed = kernel.events_executed
    station.run_for(SOLVE_PERIODS * station.manager.get("ses").behavior.solution_period)
    return kernel.events_executed - executed


def _assert_tracking_loop_folds(tree):
    with REFERENCES["every-solve"].patch():
        stepped = _loop_events(tree)
    assert {"stepped": stepped, "folded": _loop_events(tree)} == LOOP_EVENTS[tree]


def test_a_healthy_station_folds_its_tracking_loop():
    _assert_tracking_loop_folds("V")


def test_a_healthy_tree_ii_station_folds_its_tracking_loop():
    _assert_tracking_loop_folds("II")
