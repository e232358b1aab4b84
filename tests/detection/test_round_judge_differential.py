"""One judgement per ping round against the per-component judges it replaced.

``FailureDetector._tick`` pings REC, sends a round's pings back to back
and schedules one ``_judge_round`` event, which calls ``_judge_rec`` for
REC's ping and then ``_judge`` for each component ping in the order sent.
The reference (``per_component_judges_reference`` in ``tests/conftest.py``)
schedules one ``_judge_rec`` event and one ``_judge`` event per component,
interleaved with the sends.  The old judges shared a timestamp and held
sequence numbers handed out inside one ``_tick``, so nothing could run
between them (DESIGN.md §9): traces and result payloads must be
byte-identical, and ``Kernel.events_executed`` must differ by exactly the
judges folded — one event per round instead of one per judged ping.
"""

import collections
from contextlib import contextmanager

import pytest

from repro.chaos import engine as chaos_engine
from repro.detection.detector import FailureDetector
from repro.mercury.config import PAPER_CONFIG
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_v


@contextmanager
def _judge_counts():
    """Count ``_judge``, ``_judge_rec`` and ``_judge_round`` calls, whoever
    makes them."""
    counts = collections.Counter()
    judge, judge_rec = FailureDetector._judge, FailureDetector._judge_rec
    judge_round = FailureDetector._judge_round

    def counted_judge(self, component, seq):
        counts["judges"] += 1
        judge(self, component, seq)

    def counted_judge_rec(self, seq):
        counts["judges"] += 1
        judge_rec(self, seq)

    def counted_round(self, rec_seq, pinged):
        counts["rounds"] += 1
        judge_round(self, rec_seq, pinged)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FailureDetector, "_judge", counted_judge)
        patch.setattr(FailureDetector, "_judge_rec", counted_judge_rec)
        patch.setattr(FailureDetector, "_judge_round", counted_round)
        yield counts


def _trace(kernel):
    return [(r.time, r.source, r.kind, r.severity, r.data) for r in kernel.trace.records]


def _both(scenario, per_component_judges_reference):
    """Run ``scenario() -> (kernel, value)`` both ways; assert everything
    but the event count is equal and the count differs by the judges folded."""
    with _judge_counts() as folded:
        kernel, value = scenario()
    with per_component_judges_reference(), _judge_counts() as reference:
        ref_kernel, ref_value = scenario()
    assert value == ref_value
    assert kernel.now == ref_kernel.now
    assert _trace(kernel) == _trace(ref_kernel)
    assert reference["rounds"] == 0 and folded["rounds"] > 0
    assert folded["judges"] == reference["judges"]
    assert folded["judges"] > folded["rounds"]  # a real fold, not one-ping rounds
    assert (
        ref_kernel.events_executed - kernel.events_executed
        == folded["judges"] - folded["rounds"]
    )
    return value


@pytest.mark.parametrize("scenario", ["lossy", "partition", "zombie-fleet", "storm"])
def test_chaos_scenario_agrees_with_per_component_judges(
    scenario, per_component_judges_reference, monkeypatch
):
    """The scenarios that lean on judge order: under the adaptive policy
    (``lossy``, ``partition``, ``zombie-fleet``) ``_evaluate_round`` hangs
    off the round's *first* judge and every later judge of the round reads
    its verdict; ``storm`` declares several components out of one round."""
    built = []

    class Recorded(MercuryStation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(chaos_engine, "MercuryStation", Recorded)

    def campaign():
        result = chaos_engine.run_chaos(
            tree_v(), scenario, trials=1, seed=7, snapshot=False
        )
        assert not result.violations
        return built[-1].kernel, result.to_payload()

    payload = _both(campaign, per_component_judges_reference)
    assert payload["episodes"] > 0


@pytest.mark.parametrize("policy", ["fixed", "adaptive"])
def test_fd_killed_mid_round_agrees_with_per_component_judges(
    policy, per_component_judges_reference
):
    """FD dies between sending a round and judging it: the round's
    judgement finds a dead detector (every old judge did, one by one), REC
    restarts FD, and the fresh FD's warm-up rounds — bus unreachable at
    first, so only ``mbus`` is judged — fold the same way."""

    def killed_mid_round():
        station = MercuryStation(
            tree=tree_v(),
            config=PAPER_CONFIG.with_overrides(timeout_policy=policy),
            seed=21,
            trace_capacity=50_000,
        )
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
        return station.kernel, (fd_mttr, ses_mttr)

    fd_mttr, ses_mttr = _both(killed_mid_round, per_component_judges_reference)
    assert fd_mttr > 0.0 and ses_mttr > 0.0
