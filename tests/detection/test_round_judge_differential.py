"""One judgement per ping round against the per-component judges it replaced.

``FailureDetector._tick`` pings REC, sends a round's pings back to back
and schedules one ``_judge_round`` event, which calls ``_judge_rec`` for
REC's ping and then ``_judge`` for each component ping in the order sent.
The reference (``REFERENCES["per-component-judges"]`` in
``tests/differential.py``) schedules one ``_judge_rec`` event and one
``_judge`` event per component, interleaved with the sends.  The old judges
shared a timestamp and held sequence numbers handed out inside one
``_tick``, so nothing could run between them (DESIGN.md §9): traces and
result payloads must be byte-identical, and ``Kernel.events_executed`` must
differ by exactly the judges folded — one event per round instead of one
per judged ping.  Every chaos scenario runs in
``tests/integration/test_differential_matrix.py``.
"""

import pytest

from repro.mercury.config import PAPER_CONFIG
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_v
from tests.differential import CHAOS, Case, Run, compare


@pytest.mark.parametrize("scenario", ["lossy", "partition", "zombie-fleet", "storm"])
def test_chaos_scenario_agrees_with_per_component_judges(scenario):
    compare("per-component-judges", CHAOS[scenario])


@pytest.mark.parametrize("policy", ["fixed", "adaptive"])
def test_fd_killed_mid_round_agrees_with_per_component_judges(policy):
    """FD dies between sending a round and judging it: the round's
    judgement finds a dead detector (every old judge did, one by one), REC
    restarts FD, and the fresh FD's warm-up rounds — bus unreachable at
    first, so only ``mbus`` is judged — fold the same way."""

    def killed_mid_round(jsonl):
        station = MercuryStation(
            tree=tree_v(),
            config=PAPER_CONFIG.with_overrides(timeout_policy=policy),
            seed=21,
            trace_capacity=50_000,
        )
        station.kernel.trace.add_sink(jsonl)
        station.boot()
        fd = station.fd
        # Land strictly inside a round: after its pings, before its judgement.
        period = fd.ping_period
        rounds_done = int((station.kernel.now - fd._started_at) / period)
        next_tick = fd._started_at + (rounds_done + 1) * period
        station.kernel.run(until=next_tick + fd.reply_timeout / 4)
        assert station.kernel.now < next_tick + fd._current_timeout()
        crashed = station.injector.inject_simple("ses", kind="crash")
        killed = station.injector.inject_simple("fd", kind="crash")
        fd_mttr = station.run_until_recovered(killed, timeout=120.0)
        ses_mttr = station.run_until_recovered(crashed, timeout=300.0)
        station.run_until_quiescent(timeout=600.0)
        assert fd_mttr > 0.0 and ses_mttr > 0.0
        return Run(station.kernel, (fd_mttr, ses_mttr))

    compare("per-component-judges", Case(f"fd-killed-mid-round-{policy}", killed_mid_round))
