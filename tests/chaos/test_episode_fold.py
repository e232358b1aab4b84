"""One fold from events to episodes in a chaos cell: the invariant
checker's tracker is the source of the MTTR samples and of the phase
table, and replaying the cell's ``--trace-out`` file through ``repro
explain``'s reader gives back the same episodes."""

import functools
import io

import pytest

from repro.chaos import engine as chaos_engine
from repro.chaos.scenarios import SCENARIOS
from repro.mercury.trees import tree_v
from repro.obs.sinks import JsonlSink
from repro.obs.spans import EpisodeTracker
from repro.sim.trace import read_trace

from tests.differential import recording


@functools.lru_cache(maxsize=None)
def _cell(scenario):
    """``(result, the checker's tracker, the JSONL trace)`` of one trial on
    tree V at seed 7, as ``repro chaos --trace-out`` runs it."""
    stream = io.StringIO()
    with recording(chaos_engine, "InvariantChecker") as checkers:
        result = chaos_engine.run_chaos(
            tree_v(), scenario, trials=1, seed=7, sinks=[JsonlSink(stream)]
        )
    (checker,) = checkers
    return result, checker.tracker, stream.getvalue()


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_replayed_trace_gives_the_checkers_episodes(scenario, tmp_path):
    result, live, jsonl = _cell(scenario)
    path = tmp_path / "run.jsonl"
    path.write_text(jsonl)
    replayed = EpisodeTracker()
    for record in read_trace(str(path)):
        replayed.accept(record)
    replayed.flush()
    assert live.episodes and replayed.episodes == live.episodes
    assert replayed.open_episodes() == live.open_episodes()


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_phase_table_counts_every_mttr_episode(scenario):
    """Each completed failure episode is one MTTR sample and one ``total``
    in the phase table, including one the end-of-run flush completed."""
    result, _, _ = _cell(scenario)
    totals = sum(phases.get("total", {}).get("n", 0) for phases in result.phases.values())
    assert result.episodes > 0
    assert totals == result.episodes
