"""Tests for the analytic model's cost and the restart-tree search built on
it (§7 transformation algorithms)."""

import pytest

from repro.analysis.model import (
    ComponentParams,
    ResyncPair,
    SystemModel,
    mercury_system_model,
    neighbor_trees,
    optimize_tree,
)
from repro.core.tree import RestartTree, cell
from repro.errors import TreeError
from repro.faults.curability import CurabilityProfile
from repro.mercury.trees import tree_ii_prime, tree_iii, tree_iv, tree_v


def simple_model(oracle_error_rate=0.0, resync=False, **component_overrides):
    components = {
        "a": ComponentParams("a", failure_rate=1 / 600.0, restart_seconds=5.0),
        "b": ComponentParams("b", failure_rate=1 / 3600.0, restart_seconds=20.0),
        "c": ComponentParams("c", failure_rate=1 / 3600.0, restart_seconds=5.0),
    }
    components.update(component_overrides)
    curability = CurabilityProfile()
    for name in components:
        curability.set_simple(name)
    pairs = []
    if resync:
        pairs.append(ResyncPair("a", "c", 3.0, 3.0, induce_probability=1.0))
    return SystemModel(
        components=components,
        curability=curability,
        resync_pairs=pairs,
        oracle_error_rate=oracle_error_rate,
    )


def flat_tree():
    return RestartTree(
        cell("root", children=[cell("R_a", ["a"]), cell("R_b", ["b"]), cell("R_c", ["c"])]),
        name="flat",
    )


# ----------------------------------------------------------------------
# the cost model
# ----------------------------------------------------------------------


def test_batch_duration_is_contended_max():
    model = simple_model()
    assert model.batch_duration(frozenset(["a"])) == 5.0
    assert model.batch_duration(frozenset(["a", "b"])) == pytest.approx(20.0 * 1.047)


def test_batch_duration_lone_resync_penalty():
    model = simple_model(resync=True)
    assert model.batch_duration(frozenset(["a"])) == pytest.approx(8.0)  # 5 + 3
    assert model.batch_duration(frozenset(["a", "c"])) == pytest.approx(5.0 * 1.047)


def test_expected_recovery_perfect_oracle():
    model = simple_model()
    tree = flat_tree()
    assert model.expected_recovery(tree, "a", frozenset(["a"])) == pytest.approx(
        0.7 + 5.0
    )


def test_expected_recovery_mistake_chain():
    model = simple_model(oracle_error_rate=1.0)
    tree = flat_tree()
    # Joint cure {a, b}: minimal is the root; the mistaken chain starts at
    # R_a, fails (re-detect), then restarts the root.
    got = model.expected_recovery(tree, "a", frozenset(["a", "b"]))
    expected = 0.7 + 5.0 + 0.05 + 0.7 + 20.0 * (1 + 0.047 * 2)
    assert got == pytest.approx(expected)


def test_induced_cost_charged_when_peer_excluded():
    model = simple_model(resync=True)
    tree = flat_tree()
    lone = model.induced_cost(tree, frozenset(["a"]))
    assert lone == pytest.approx(0.7 + 8.0)  # c's lone episode, q = 1
    joint = model.induced_cost(tree, frozenset(["a", "c"]))
    assert joint == 0.0


def test_downtime_rate_requires_coverage():
    model = simple_model()
    partial = RestartTree(cell("root", ["a", "b"]))
    with pytest.raises(TreeError):
        model.downtime_rate(partial)


def test_downtime_rate_weights_by_failure_rate():
    model = simple_model()
    tree = flat_tree()
    rate = model.downtime_rate(tree)
    expected = (
        (1 / 600) * (0.7 + 5.0)
        + (1 / 3600) * (0.7 + 20.0)
        + (1 / 3600) * (0.7 + 5.0)
    )
    assert rate == pytest.approx(expected)


# ----------------------------------------------------------------------
# neighbors
# ----------------------------------------------------------------------


def test_neighbors_cover_all_three_move_kinds():
    descriptions = [d for d, _ in neighbor_trees(tree_iii())]
    assert any(d.startswith("consolidate(") for d in descriptions)
    assert any(d.startswith("insert_joint(") for d in descriptions)
    assert any(d.startswith("promote(") for d in descriptions)


def test_neighbors_are_valid_trees():
    for _description, candidate in neighbor_trees(tree_iii()):
        assert candidate.components == tree_iii().components


# ----------------------------------------------------------------------
# optimization
# ----------------------------------------------------------------------


def test_no_move_when_flat_tree_is_optimal():
    """Independent components with a perfect oracle: leaf restarts are
    already minimal, so the optimizer should change nothing."""
    model = simple_model()
    result = optimize_tree(model, flat_tree())
    assert result.steps == []
    assert result.downtime_rate == result.initial_downtime_rate


def test_consolidation_discovered_for_resync_pair():
    model = simple_model(resync=True)
    result = optimize_tree(model, flat_tree())
    assert any("consolidate" in s.description for s in result.steps)
    merged = result.tree.cell_of_component("a")
    assert result.tree.components_restarted_by(merged) >= frozenset(["a", "c"])
    assert result.downtime_rate < result.initial_downtime_rate


def test_rediscovers_the_papers_tree():
    """The capstone: from tree II' and Mercury's observed failure data, the
    optimizer performs the paper's three §4 moves and reaches a tree with
    tree V's structure and cost."""
    model = mercury_system_model(tree_ii_prime())
    result = optimize_tree(model, tree_ii_prime())
    kinds = [step.description.split("(")[0] for step in result.steps]
    assert sorted(kinds) == ["consolidate", "insert_joint", "promote"]
    # Structure: ses+str share a leaf; pbcom sits on an internal cell over fedr.
    tree = result.tree
    assert tree.components_restarted_by(
        tree.cell_of_component("ses")
    ) == frozenset(["ses", "str"])
    pbcom_cell = tree.cell_of_component("pbcom")
    assert tree.components_restarted_by(pbcom_cell) == frozenset(["fedr", "pbcom"])
    assert not tree.get_cell(pbcom_cell).is_leaf
    # Cost: equal to hand-derived tree V (and better than II'/III/IV).
    assert result.downtime_rate == pytest.approx(model.downtime_rate(tree_v()), rel=1e-9)
    assert result.downtime_rate < model.downtime_rate(tree_iii())
    assert result.downtime_rate < model.downtime_rate(tree_iv()) + 1e-12


def test_paper_tree_costs_are_ordered():
    model = mercury_system_model(tree_ii_prime())
    costs = {
        "II'": model.downtime_rate(tree_ii_prime()),
        "III": model.downtime_rate(tree_iii()),
        "IV": model.downtime_rate(tree_iv()),
        "V": model.downtime_rate(tree_v()),
    }
    assert costs["V"] <= costs["IV"] <= costs["III"] <= costs["II'"]


def test_promotion_not_chosen_with_perfect_oracle():
    """With no oracle mistakes, promotion has no benefit and a small cost
    (simple pbcom failures drag fedr along), so it must not be applied."""
    model = mercury_system_model(tree_iv(), oracle_error_rate=0.0)
    result = optimize_tree(model, tree_iv())
    assert not any("promote(pbcom)" in s.description for s in result.steps)


def test_optimizer_respects_iteration_bound():
    model = mercury_system_model(tree_ii_prime())
    result = optimize_tree(model, tree_ii_prime(), max_iterations=1)
    assert len(result.steps) <= 1


def test_improvement_factor():
    model = simple_model(resync=True)
    result = optimize_tree(model, flat_tree())
    assert result.improvement_factor > 1.0
