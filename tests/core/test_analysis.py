"""The §3.2 and §4.1/§4.4 closed forms, as outputs of the one analytic model
(:mod:`repro.analysis.model`)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.model import ComponentParams, SystemModel, mercury_system_model
from repro.core.tree import RestartTree, cell
from repro.errors import FaultModelError, TreeError
from repro.faults.curability import CurabilityProfile
from repro.mercury.config import PAPER_CONFIG
from repro.mercury.trees import tree_i, tree_ii, tree_iii, tree_iv, tree_v


def group_model(mttfs, restarts, contention=0.0):
    """Components ``c0..cn`` with the given MTTFs and restart times, no
    detection latency, and self-curing failures."""
    components = {
        f"c{i}": ComponentParams(f"c{i}", 1.0 / mttf, restart)
        for i, (mttf, restart) in enumerate(zip(mttfs, restarts))
    }
    curability = CurabilityProfile()
    for name in components:
        curability.set_simple(name)
    return SystemModel(
        components, curability, mean_detection=0.0, contention_coefficient=contention
    )


def group_tree(model):
    """One restart group over every component of ``model``."""
    return RestartTree(cell("G", sorted(model.components)))


def flat_tree(model):
    """Every component of ``model`` in its own cell."""
    return RestartTree(
        cell("root", children=[cell(f"R_{name}", [name]) for name in sorted(model.components)])
    )


def test_group_bounds():
    model = group_model([10.0, 5.0, 20.0], [10.0, 5.0, 20.0])
    # MTTR_G >= max(MTTR_ci): the group restart lasts as long as its slowest.
    assert model.batch_duration(frozenset(model.components)) == 20.0
    # MTTF_G <= min(MTTF_ci): failures superpose, so the group fails first.
    assert model.probability_failure_free(1.0) <= math.exp(-1.0 / 5.0)


def test_group_bounds_empty_rejected():
    with pytest.raises(TreeError):
        group_model([1.0], [1.0]).batch_duration(frozenset())


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=1e6),
            st.floats(min_value=0.1, max_value=1e6),
        ),
        min_size=1,
        max_size=10,
    ),
    st.floats(min_value=0.0, max_value=0.2),
)
@settings(max_examples=100, deadline=None)
def test_bounds_hold_per_paper_inequalities(pairs, contention):
    """§3.2: MTTF_G <= min(MTTF_ci) and MTTR_G >= max(MTTR_ci)."""
    mttfs, restarts = zip(*pairs)
    model = group_model(mttfs, restarts, contention)
    # A batch's duration is at least its slowest member's restart.
    assert model.batch_duration(frozenset(model.components)) >= max(restarts)
    # A failure in the group costs at least what it costs the member alone.
    group, flat = group_tree(model), flat_tree(model)
    for name in model.components:
        assert model.failure_cost(group, name) >= model.failure_cost(flat, name)
    # The group survives an interval no more often than its weakest member.
    assert model.probability_failure_free(1.0) <= math.exp(-1.0 / min(mttfs))


def test_expected_group_mttr_formula():
    """§4.1: MTTR_G = sum f_ci * MTTR_ci."""
    curability = CurabilityProfile().set_alternatives(
        "a", [(0.8, ["a"]), (0.2, ["a", "b"])]
    )
    curability.set_simple("b")
    model = SystemModel(
        {
            "a": ComponentParams("a", 1 / 600.0, 5.0),
            "b": ComponentParams("b", 1 / 600.0, 20.0),
        },
        curability,
        mean_detection=0.0,
        contention_coefficient=0.0,
    )
    tree = RestartTree(cell("root", children=[cell("R_a", ["a"]), cell("R_b", ["b"])]))
    assert model.failure_cost(tree, "a") == pytest.approx(0.8 * 5 + 0.2 * 20)


def test_expected_group_mttr_requires_normalised_f():
    with pytest.raises(FaultModelError):
        CurabilityProfile().set_alternatives("a", [(0.5, ["a"])])


def test_expected_group_mttr_requires_mttr_for_each_cure():
    curability = CurabilityProfile().set_alternatives("a", [(1.0, ["a", "z"])])
    model = SystemModel({"a": ComponentParams("a", 1 / 600.0, 5.0)}, curability)
    tree = RestartTree(cell("root", children=[cell("R_a", ["a"]), cell("R_z", ["z"])]))
    with pytest.raises(TreeError, match="'z'"):
        model.failure_cost(tree, "a")


def test_restart_duration_singleton():
    seconds = PAPER_CONFIG.restart_seconds()
    model = mercury_system_model(tree_ii())
    duration = model.batch_duration(tree_ii().components_restarted_by("R_rtu"))
    assert duration == pytest.approx(seconds["rtu"])


def test_restart_duration_group_contention():
    seconds = PAPER_CONFIG.restart_seconds(lone=False)
    model = mercury_system_model(tree_i())
    duration = model.batch_duration(tree_i().components_restarted_by("R_mercury"))
    assert duration == pytest.approx(max(seconds[c] for c in tree_i().components) * (1 + 0.047 * 4))


def test_restart_duration_missing_component_rejected():
    model = group_model([1.0], [1.0])
    with pytest.raises(TreeError, match="'rtu'"):
        model.batch_duration(tree_ii().components_restarted_by("R_rtu"))


def test_predict_tree_i_full_reboot():
    """The analytic prediction lands on the Table 2 tree-I value."""
    model = mercury_system_model(tree_i(), oracle_error_rate=0.0)
    predicted = model.expected_recovery(tree_i(), "rtu", ["rtu"])
    assert predicted == pytest.approx(24.75, abs=0.6)


def test_predict_tree_ii_rtu():
    model = mercury_system_model(tree_ii(), oracle_error_rate=0.0)
    predicted = model.expected_recovery(tree_ii(), "rtu", ["rtu"])
    assert predicted == pytest.approx(5.59, abs=0.2)


def test_predict_faulty_oracle_blends_mistake_path():
    base = mercury_system_model(tree_iv(), oracle_error_rate=0.0).expected_recovery(
        tree_iv(), "pbcom", ["fedr", "pbcom"]
    )
    faulty = mercury_system_model(tree_iv(), oracle_error_rate=0.3).expected_recovery(
        tree_iv(), "pbcom", ["fedr", "pbcom"]
    )
    assert faulty > base
    # Paper: 29.19s for tree IV with the 30% faulty oracle.
    assert faulty == pytest.approx(29.19, abs=1.5)


def test_predict_tree_v_immune_to_mistakes():
    """Tree V structurally forbids guess-too-low on pbcom (§4.4)."""
    perfect = mercury_system_model(tree_v(), oracle_error_rate=0.0).expected_recovery(
        tree_v(), "pbcom", ["fedr", "pbcom"]
    )
    faulty = mercury_system_model(tree_v(), oracle_error_rate=0.3).expected_recovery(
        tree_v(), "pbcom", ["fedr", "pbcom"]
    )
    assert faulty == perfect
    assert faulty == pytest.approx(21.63, abs=1.0)


@given(
    mttf=st.floats(min_value=1e-3, max_value=1e9),
    mttr=st.floats(min_value=0.0, max_value=1e9),
)
@settings(max_examples=100, deadline=None)
def test_availability_in_unit_interval(mttf, mttr):
    model = group_model([mttf], [mttr])
    a = model.availability(group_tree(model))
    assert 0.0 < a <= 1.0


def test_system_mttr_table_orders_trees_correctly():
    """Theory predicts the paper's ordering: each evolution step helps the
    failures it targets and never hurts under a perfect oracle."""

    def table(tree):
        model = mercury_system_model(tree, oracle_error_rate=0.0)
        return {c: model.expected_recovery(tree, c, [c]) for c in tree.components}

    t1 = table(tree_i())
    t2 = table(tree_ii())
    for component in t2:
        assert t2[component] <= t1[component] + 1e-9
    # Consolidation: ses/str improve from III (lone restarts) to IV (joint).
    t3 = table(tree_iii())
    t4 = table(tree_iv())
    assert t4["ses"] < t3["ses"]
    assert t4["str"] < t3["str"]
