"""The Mercury model builder: every tree, its tables, and the pinned §4.4 and
§8 analytic values."""

import math

import pytest

from repro.analysis.model import ResyncPair, mercury_system_model
from repro.errors import TreeError
from repro.mercury.config import PAPER_CONFIG, ComponentTiming
from repro.mercury.trees import TREE_BUILDERS, tree_ii, tree_iv, tree_v


@pytest.mark.parametrize("label", sorted(TREE_BUILDERS))
def test_model_costs_every_tree(label):
    tree = TREE_BUILDERS[label]()
    model = mercury_system_model(tree)
    assert set(model.components) == tree.components
    assert 0.0 < model.downtime_rate(tree) < math.inf
    assert 0.0 < model.availability(tree) < 1.0
    for component in tree.components:
        assert model.expected_recovery(tree, component, [component]) > model.mean_detection


@pytest.mark.parametrize("table", ["mttf_seconds", "timings"])
def test_missing_table_entry_names_the_component(table):
    entries = dict(getattr(PAPER_CONFIG, table))
    del entries["rtu"]
    config = PAPER_CONFIG.with_overrides(**{table: entries})
    with pytest.raises(TreeError, match="'rtu'"):
        mercury_system_model(tree_v(), config)


def test_resync_pairs_come_from_the_config():
    assert mercury_system_model(tree_ii()).resync_pairs == [
        ResyncPair("ses", "str", 3.50, 3.89, induce_probability=1.0)
    ]
    timings = dict(PAPER_CONFIG.timings)
    timings["rtu"] = ComponentTiming(work=4.89, lone_penalty=1.0, resync_peer="mbus")
    timings["mbus"] = ComponentTiming(work=5.03, lone_penalty=2.0, resync_peer="rtu")
    config = PAPER_CONFIG.with_overrides(timings=timings, resync_induce_probability=0.5)
    assert mercury_system_model(tree_ii(), config).resync_pairs == [
        ResyncPair("mbus", "rtu", 2.0, 1.0, induce_probability=0.5),
        ResyncPair("ses", "str", 3.50, 3.89, induce_probability=0.5),
    ]


@pytest.mark.parametrize(
    "tree, p, seconds",
    [
        (tree_iv, 0.0, 22.20538),
        (tree_iv, 0.3, 28.59238),
        (tree_iv, 0.6, 34.97938),
        (tree_iv, 1.0, 43.49538),
        (tree_v, 0.0, 22.20538),
        (tree_v, 0.3, 22.20538),
        (tree_v, 0.6, 22.20538),
        (tree_v, 1.0, 22.20538),
    ],
)
def test_sec44_expected_recovery(tree, p, seconds):
    """§4.4: joint-curable pbcom failures under a guess-too-low oracle."""
    model = mercury_system_model(tree(), oracle_error_rate=p)
    assert model.expected_recovery(tree(), "pbcom", ["fedr", "pbcom"]) == pytest.approx(
        seconds, abs=1e-6
    )


@pytest.mark.parametrize(
    "label, availability",
    [
        ("I", 0.956453),
        ("II", 0.963926),
        ("III", 0.988042),
        ("IV", 0.989470),
        ("V", 0.989469),
    ],
)
def test_sec8_series_availability(label, availability):
    """§8's analytic column: perfect oracle, self-curing failures."""
    tree = TREE_BUILDERS[label]()
    model = mercury_system_model(tree, oracle_error_rate=0.0, pbcom_joint_fraction=0.0)
    assert model.availability(tree) == pytest.approx(availability, abs=1e-6)
