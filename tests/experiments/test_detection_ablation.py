"""Regression tests for the detection-accuracy vs MTTR ablation.

The ablation is a view over ``detection`` chaos cells: the cell's ``drop``
degrades every link for the whole trial, and the reply-timeout policy is
the station config's.  The headline claim it must keep true: on a lossy
network the paper's fixed single-miss detector fires false positives, and
the adaptive policy measurably reduces the spurious declarations that
*stand* (are never withdrawn).  Single cells are noisy — an escalated false
positive buys a long suppressed restart that silences the FP counter while
the cost moves into MTTR — so the regression asserts on aggregates over
seeds.
"""

import pytest

from repro.chaos.engine import ChaosResult
from repro.experiments.runner import run_suite
from repro.mercury.config import PAPER_CONFIG

HIGH_DROP = 0.15


def cells(policy, drops, seed):
    """``{drop: ChaosResult}`` of ``detection`` cells on tree V."""
    suite = run_suite(
        "chaos",
        {"drop": drops},
        scenario="detection",
        tree="V",
        trials=1,
        seed=seed,
        config=PAPER_CONFIG.with_overrides(timeout_policy=policy),
    )
    return {drop: cell for (drop,), cell in suite.items()}


def total(cells, attribute):
    return sum(getattr(cell, attribute) for cell in cells)


def standing(cells):
    """Spurious declarations the detector never withdrew."""
    return sum(max(0, cell.false_positives - cell.retractions) for cell in cells)


@pytest.fixture(scope="module")
def high_drop_cells():
    """Both policies at high drop over three independent seeds."""
    return {
        policy: [cells(policy, [HIGH_DROP], seed)[HIGH_DROP] for seed in (0, 1, 2)]
        for policy in ("fixed", "adaptive")
    }


def test_clean_network_has_no_false_positives():
    for policy in ("fixed", "adaptive"):
        cell = cells(policy, [0.0], 0)[0.0]
        assert cell.false_positives == 0
        assert cell.retractions == 0
        assert cell.injected == 3
        assert cell.phase("detection").n == cell.injected  # every crash caught
        assert cell.ok


def test_fixed_policy_false_positives_nonzero_at_high_drop(high_drop_cells):
    assert all(cell.false_positives > 0 for cell in high_drop_cells["fixed"])
    # The fixed detector never retracts: its spurious declarations all stand.
    assert total(high_drop_cells["fixed"], "retractions") == 0


def test_adaptive_policy_measurably_reduces_standing_false_positives(
    high_drop_cells,
):
    fixed = standing(high_drop_cells["fixed"])
    adaptive = standing(high_drop_cells["adaptive"])
    assert fixed > 0
    assert adaptive < fixed / 2  # "measurably": at least a 2x reduction


def test_adaptive_policy_retracts_under_loss(high_drop_cells):
    assert total(high_drop_cells["adaptive"], "retractions") > 0


def test_every_cell_keeps_the_invariants(high_drop_cells):
    for policy_cells in high_drop_cells.values():
        assert all(cell.ok for cell in policy_cells)


def test_cells_are_deterministic_in_seed():
    a = cells("adaptive", [HIGH_DROP], 42)[HIGH_DROP]
    b = cells("adaptive", [HIGH_DROP], 42)[HIGH_DROP]
    assert a.to_payload() == b.to_payload()


def test_drop_reaches_the_fabric():
    """The cell's drop rate is what loses messages: none at 0, some above."""
    sweep = cells("fixed", [0.0, HIGH_DROP], 3)
    assert sweep[0.0].net_dropped == 0
    assert sweep[HIGH_DROP].net_dropped > 0


def test_sweep_is_cell_independent():
    """A subset sweep reproduces the same cell as the full sweep."""
    full = cells("adaptive", [0.0, HIGH_DROP], 1)
    subset = cells("adaptive", [HIGH_DROP], 1)
    assert full[HIGH_DROP].to_payload() == subset[HIGH_DROP].to_payload()


def test_result_derived_metrics():
    cell = ChaosResult(
        tree_name="tree-V", scenario="detection", trials=1, injected=3,
        skipped=0, episodes=2, mttr_samples=[4.0, 8.0],
        phases={
            "rtu": {"detection": {"n": 1, "total": 1.0, "sumsq": 1.0, "min": 1.0, "max": 1.0}},
            "ses": {"detection": {"n": 1, "total": 3.0, "sumsq": 9.0, "min": 3.0, "max": 3.0}},
        },
    )
    detection = cell.phase("detection")
    assert detection.n == 2
    assert detection.mean == pytest.approx(2.0)
    assert detection.maximum == pytest.approx(3.0)
    assert cell.phase("decision").n == 0
    assert cell.stats.mean == pytest.approx(6.0)
