"""The series-system view of the analytic model: availability, superposed
failure arrivals and §5.2's failure-free pass (:mod:`repro.analysis.model`)."""

import math

import pytest

from repro.analysis.model import ComponentParams, SystemModel, mercury_system_model
from repro.core.tree import RestartTree, cell
from repro.errors import TreeError
from repro.faults.curability import CurabilityProfile
from repro.mercury.trees import tree_i, tree_v


def series(tables):
    """A model and flat tree from ``{name: (MTTF, MTTR)}``: each component
    in its own cell, its MTTR all restart (no detection latency)."""
    components = {
        name: ComponentParams(name, 1.0 / mttf, mttr)
        for name, (mttf, mttr) in tables.items()
    }
    curability = CurabilityProfile()
    for name in components:
        curability.set_simple(name)
    model = SystemModel(components, curability, mean_detection=0.0)
    tree = RestartTree(
        cell("root", children=[cell(f"R_{name}", [name]) for name in sorted(tables)])
    )
    return model, tree


def test_component_availability_ratio():
    model, tree = series({"a": (99.0, 1.0)})
    assert model.availability(tree) == pytest.approx(0.99)
    model, tree = series({"a": (10.0, 0.0)})
    assert model.availability(tree) == 1.0


def test_component_availability_validation():
    with pytest.raises(TreeError):
        ComponentParams("a", failure_rate=math.inf, restart_seconds=1.0)  # MTTF 0
    with pytest.raises(TreeError):
        ComponentParams("a", failure_rate=1.0, restart_seconds=-1.0)


def test_component_model_properties():
    model, tree = series({"fedr": (600.0, 6.0)})
    assert model.availability(tree) == pytest.approx(600 / 606)
    assert model.downtime_rate(tree) == pytest.approx(6.0 / 600)


def test_series_availability_is_product():
    model, tree = series({"a": (100.0, 1.0), "b": (200.0, 2.0)})
    expected = (100 / 101) * (200 / 202)
    assert model.availability(tree) == pytest.approx(expected)


def test_series_failure_rate_superposes():
    model, _ = series({"a": (100.0, 1.0), "b": (50.0, 1.0)})
    rate = -math.log(model.probability_failure_free(1.0))
    assert rate == pytest.approx(1 / 100 + 1 / 50)
    assert 1 / rate == pytest.approx(1 / (1 / 100 + 1 / 50))


def test_series_mttr_is_rate_weighted():
    model, tree = series({"often": (10.0, 1.0), "rare": (1000.0, 100.0)})
    rate_often, rate_rare = 1 / 10, 1 / 1000
    total = rate_often + rate_rare
    expected = rate_often / total * 1.0 + rate_rare / total * 100.0
    assert model.downtime_rate(tree) / total == pytest.approx(expected)


def test_from_tables_key_mismatch_rejected():
    model, _ = series({"a": (1.0, 1.0)})
    _, other = series({"b": (1.0, 1.0)})
    with pytest.raises(TreeError, match=r"\['a', 'b'\]"):
        model.availability(other)


def test_empty_system_rejected():
    with pytest.raises(TreeError):
        SystemModel({}, CurabilityProfile())


def test_probability_failure_free_pass():
    """§5.2: 'A large MTTF does not guarantee a failure-free pass'."""
    model = mercury_system_model(tree_v())
    p = model.probability_failure_free(15 * 60.0)
    # fedr alone fails every ~10 minutes: most passes see a failure.
    assert p < 0.3
    total_rate = sum(c.failure_rate for c in model.components.values())
    assert p == pytest.approx(math.exp(-900.0 * total_rate))


def test_probability_failure_free_validation():
    model, _ = series({"a": (10.0, 1.0)})
    with pytest.raises(TreeError):
        model.probability_failure_free(-1.0)
    assert model.probability_failure_free(0.0) == 1.0


def test_mercury_tree_i_vs_tree_v_analytic_availability():
    """The paper's availability argument in closed form: shrinking MTTR
    from the tree-I full reboot to tree-V partial restarts lifts
    availability."""

    def availability(tree):
        model = mercury_system_model(tree, oracle_error_rate=0.0, pbcom_joint_fraction=0.0)
        return model.availability(tree)

    a_i = availability(tree_i())
    a_v = availability(tree_v())
    assert a_v > a_i
    assert (1 - a_i) / (1 - a_v) > 2.5  # downtime shrinks by ~the MTTR ratio
