"""§7 extension — the learning oracle.

"We intend to extend the oracle with the ability to learn from its mistakes
and this way generate estimates for f_ci values."  This bench runs
joint-curable pbcom failures under tree III with three oracles: naive
(always starts at the leaf, escalates), learning (naive until the evidence
accumulates), and perfect (ground truth).  Learning converges to
perfect-oracle recovery times, and its f estimates recover the injected
curability profile.
"""

import pytest
from conftest import print_banner

from repro.core.oracle import LearningOracle
from repro.experiments.report import format_table
from repro.mercury.station import MercuryStation
from repro.mercury.trees import tree_iii

EPISODES = 14


def run_episodes(oracle_spec, seed=370):
    oracle = (
        LearningOracle(min_samples=3, confidence=0.6)
        if oracle_spec == "learning"
        else oracle_spec
    )
    station = MercuryStation(tree=tree_iii(), seed=seed, oracle=oracle)
    station.aging.enabled = False
    station.boot()
    samples = []
    for index in range(EPISODES):
        station.run_until_quiescent()
        station.run_for(0.4 + 0.07 * index)
        failure = station.injector.inject_joint("pbcom", ["fedr", "pbcom"])
        samples.append(station.run_until_recovered(failure, timeout=400.0))
    return samples, station.oracle


def test_learning_oracle():
    naive_samples, _ = run_episodes("naive")
    learning_samples, learning = run_episodes("learning")
    perfect_samples, _ = run_episodes("perfect")

    half = EPISODES // 2
    rows = [
        ["naive", sum(naive_samples[:half]) / half, sum(naive_samples[half:]) / half],
        [
            "learning",
            sum(learning_samples[:half]) / half,
            sum(learning_samples[half:]) / half,
        ],
        [
            "perfect",
            sum(perfect_samples[:half]) / half,
            sum(perfect_samples[half:]) / half,
        ],
    ]
    print_banner(
        f"§7 extension: mean recovery (s) for joint-curable pbcom failures, "
        f"episodes 1-{half} vs {half + 1}-{EPISODES} (tree III)"
    )
    print(format_table(["oracle", "early episodes", "late episodes"], rows))
    estimates = learning.f_estimates("pbcom")
    print(f"learned f estimates for pbcom: { {k: round(v, 2) for k, v in estimates.items()} }")

    naive_late = rows[0][2]
    learning_late = rows[1][2]
    perfect_late = rows[2][2]
    # Naive keeps paying the guess-too-low escalation forever...
    assert naive_late > perfect_late + 15.0
    # ...learning converges to the perfect oracle's recovery time...
    assert learning_late == pytest.approx(perfect_late, abs=1.5)
    # ...because it learned the true curability structure.
    assert estimates["R_pbcom"] == 0.0
    assert estimates["R_fedr_pbcom"] == 1.0
