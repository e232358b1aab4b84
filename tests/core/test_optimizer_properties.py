"""Property-based tests for the tree optimizer over random systems."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.model import (
    ComponentParams,
    ResyncPair,
    SystemModel,
    neighbor_trees,
    optimize_tree,
)
from repro.core.tree import RestartTree
from repro.faults.curability import CurabilityProfile

from tests.core.test_tree import random_trees


@st.composite
def models_for(draw, tree: RestartTree):
    """A random SystemModel covering the tree's components."""
    components = {}
    names = sorted(tree.components)
    for name in names:
        components[name] = ComponentParams(
            name=name,
            failure_rate=1.0 / draw(st.floats(min_value=60.0, max_value=1e6)),
            restart_seconds=draw(st.floats(min_value=0.5, max_value=30.0)),
        )
    curability = CurabilityProfile()
    for name in names:
        if len(names) > 1 and draw(st.booleans()):
            partner = draw(st.sampled_from([n for n in names if n != name]))
            joint_p = draw(st.floats(min_value=0.0, max_value=0.5))
            curability.set_alternatives(
                name, [(1.0 - joint_p, [name]), (joint_p, [name, partner])]
            )
        else:
            curability.set_simple(name)
    pairs = []
    if len(names) >= 2 and draw(st.booleans()):
        a, b = names[0], names[1]
        pairs.append(
            ResyncPair(
                a,
                b,
                left_lone_penalty=draw(st.floats(min_value=0.0, max_value=5.0)),
                right_lone_penalty=draw(st.floats(min_value=0.0, max_value=5.0)),
                induce_probability=draw(st.floats(min_value=0.0, max_value=1.0)),
            )
        )
    return SystemModel(
        components=components,
        curability=curability,
        resync_pairs=pairs,
        oracle_error_rate=draw(st.floats(min_value=0.0, max_value=0.9)),
    )


@st.composite
def trees_and_models(draw):
    tree = draw(random_trees())
    return tree, draw(models_for(tree))


@given(trees_and_models())
@settings(max_examples=40, deadline=None)
def test_downtime_rate_positive_and_finite(pair):
    tree, model = pair
    rate = model.downtime_rate(tree)
    assert 0.0 < rate < float("inf")


@given(trees_and_models())
@settings(max_examples=8, deadline=None)
def test_optimizer_never_worsens(pair):
    tree, model = pair
    result = optimize_tree(model, tree, max_iterations=10)
    assert result.downtime_rate <= result.initial_downtime_rate + 1e-12
    # The accepted path is strictly decreasing.
    costs = [result.initial_downtime_rate] + [s.downtime_rate for s in result.steps]
    assert all(b < a for a, b in zip(costs, costs[1:]))


@given(trees_and_models())
@settings(max_examples=25, deadline=None)
def test_neighbors_preserve_cost_model_applicability(pair):
    tree, model = pair
    for _description, candidate in neighbor_trees(tree):
        rate = model.downtime_rate(candidate)
        assert rate > 0.0


@given(trees_and_models())
@settings(max_examples=8, deadline=None)
def test_optimized_tree_still_covers_system(pair):
    tree, model = pair
    result = optimize_tree(model, tree, max_iterations=10)
    assert result.tree.components == tree.components
