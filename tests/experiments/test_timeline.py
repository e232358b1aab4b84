"""Tests for the per-episode timelines ``repro explain`` prints from a
``--trace-out`` file."""

import pytest

from repro.cli import main
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_iii, tree_v
from repro.obs.sinks import JsonlSink


@pytest.fixture
def station():
    s = MercuryStation(tree=tree_v(), seed=121)
    s.boot()
    return s


def explain(station, tmp_path, capsys, run):
    """Run ``run(station)`` with a JSONL sink attached; return ``repro
    explain``'s output for the file, one list of lines per episode."""
    path = str(tmp_path / "run.jsonl")
    sink = station.kernel.trace.add_sink(JsonlSink(path))
    run(station)
    sink.close()
    capsys.readouterr()
    assert main(["explain", path]) == 0
    return [block.splitlines() for block in capsys.readouterr().out.split("\n\n")[1:]]


def recover(component, **kwargs):
    def run(station):
        failure = station.injector.inject_simple(component)
        station.run_until_recovered(failure, **kwargs)
        station.run_for(5.0)

    return run


def test_simple_episode_narrative(station, tmp_path, capsys):
    (episode,) = explain(station, tmp_path, capsys, recover("rtu"))
    assert episode[0].startswith("rtu: failure 1 (crash), cells R_rtu, restarts 1, detected via ping")
    text = "\n".join(episode)
    assert "failure injected in rtu" in text
    assert "FD detected rtu" in text
    assert "restart ordered: R_rtu" in text
    assert "rtu functionally ready" in text
    assert "failure in rtu cured" in text
    assert "episode closed for rtu" in text
    # Relative timestamps, starting at the injection.
    assert episode[2].startswith("  t=+   0.000s  failure injected in rtu")


def test_narrative_is_chronological(station, tmp_path, capsys):
    (episode,) = explain(station, tmp_path, capsys, recover("ses"))
    times = [float(line[5:].split("s", 1)[0]) for line in episode[2:]]
    assert times and times == sorted(times)


def test_escalation_narrative(tmp_path, capsys):
    station = MercuryStation(tree=tree_iii(), seed=122, oracle="naive")
    station.boot()

    def run(station):
        failure = station.injector.inject_joint("pbcom", ["fedr", "pbcom"])
        station.run_until_recovered(failure, timeout=400.0)
        station.run_for(5.0)

    (episode,) = explain(station, tmp_path, capsys, run)
    assert "cells R_pbcom, R_fedr_pbcom, restarts 2" in episode[0]
    text = "\n".join(episode)
    assert "restart ordered: R_pbcom" in text
    assert "failure re-manifested in pbcom" in text
    assert "restart ordered: R_fedr_pbcom" in text
    assert text.index("R_pbcom") < text.index("R_fedr_pbcom")


def test_component_filter(station, tmp_path, capsys):
    """ses's failure restarts ses and str (``R_ses_str``): the episode's
    narrative keeps the records naming ses or the cell, not str's own."""
    (episode,) = explain(station, tmp_path, capsys, recover("ses"))
    text = "\n".join(episode)
    assert "restart ordered: R_ses_str" in text
    assert "ses functionally ready" in text
    assert "str functionally ready" not in text
    assert main(["trace", str(tmp_path / "run.jsonl"), "--kind", "process_ready"]) == 0
    assert "'str'" in capsys.readouterr().out
