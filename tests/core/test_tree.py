"""Tests for restart cells, trees and groups — including hypothesis
properties over randomly generated trees."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tree import RestartCell, RestartTree, cell
from repro.errors import (
    DuplicateCellError,
    TreeError,
    UnknownCellError,
    UnknownComponentError,
)


@pytest.fixture
def figure2():
    """The paper's Figure 2 example tree."""
    return RestartTree(
        cell("R_ABC", children=[
            cell("R_A", ["A"]),
            cell("R_BC", children=[cell("R_B", ["B"]), cell("R_C", ["C"])]),
        ]),
        name="figure-2",
    )


def test_empty_cell_rejected():
    with pytest.raises(TreeError):
        RestartCell("empty")


def test_empty_cell_id_rejected():
    with pytest.raises(TreeError):
        RestartCell("", components=["x"])


def test_duplicate_cell_id_rejected():
    with pytest.raises(DuplicateCellError):
        RestartTree(cell("R", children=[cell("X", ["a"]), cell("X", ["b"])]))


def test_component_attached_twice_rejected():
    with pytest.raises(TreeError):
        RestartTree(cell("R", children=[cell("X", ["a"]), cell("Y", ["a"])]))


def test_components_and_cells(figure2):
    assert figure2.components == frozenset("ABC")
    assert figure2.cell_ids == ["R_ABC", "R_A", "R_BC", "R_B", "R_C"]


def test_parent_lookup(figure2):
    assert figure2.parent_of("R_ABC") is None
    assert figure2.parent_of("R_A") == "R_ABC"
    assert figure2.parent_of("R_B") == "R_BC"
    with pytest.raises(UnknownCellError):
        figure2.parent_of("ghost")


def test_cell_of_component(figure2):
    assert figure2.cell_of_component("A") == "R_A"
    assert figure2.cell_of_component("C") == "R_C"
    with pytest.raises(UnknownComponentError):
        figure2.cell_of_component("Z")


def test_components_restarted_by(figure2):
    """Pushing a cell's button restarts its whole subtree (§3.1)."""
    assert figure2.components_restarted_by("R_B") == frozenset("B")
    assert figure2.components_restarted_by("R_BC") == frozenset("BC")
    assert figure2.components_restarted_by("R_ABC") == frozenset("ABC")


def test_five_restart_groups(figure2):
    """The paper counts 5 groups in the Figure 2 tree."""
    groups = figure2.groups()
    assert len(groups) == 5
    assert frozenset("ABC") in groups  # the system is always a group


def test_path_to_root(figure2):
    assert figure2.path_to_root("R_B") == ["R_B", "R_BC", "R_ABC"]
    assert figure2.path_to_root("R_ABC") == ["R_ABC"]


def test_is_ancestor(figure2):
    assert figure2.is_ancestor("R_ABC", "R_B")
    assert figure2.is_ancestor("R_BC", "R_C")
    assert figure2.is_ancestor("R_B", "R_B")  # reflexive
    assert not figure2.is_ancestor("R_B", "R_BC")
    assert not figure2.is_ancestor("R_A", "R_B")


def test_depth_and_height(figure2):
    assert figure2.depth_of("R_ABC") == 0
    assert figure2.depth_of("R_A") == 1
    assert figure2.depth_of("R_B") == 2
    assert figure2.height == 2


def test_minimal_cell_covering_single(figure2):
    assert figure2.minimal_cell_covering(["B"]) == "R_B"


def test_minimal_cell_covering_pair(figure2):
    assert figure2.minimal_cell_covering(["B", "C"]) == "R_BC"
    assert figure2.minimal_cell_covering(["A", "B"]) == "R_ABC"


def test_minimal_cell_covering_errors(figure2):
    with pytest.raises(TreeError):
        figure2.minimal_cell_covering([])
    with pytest.raises(UnknownComponentError):
        figure2.minimal_cell_covering(["B", "Z"])


def test_annotation_on_internal_cell():
    """Node promotion (§4.4) places a component on an internal cell."""
    tree = RestartTree(
        cell("root", children=[cell("joint", ["pbcom"], children=[cell("R_fedr", ["fedr"])])])
    )
    assert tree.cell_of_component("pbcom") == "joint"
    assert tree.components_restarted_by("joint") == frozenset(["pbcom", "fedr"])
    assert tree.minimal_cell_covering(["pbcom"]) == "joint"
    assert tree.minimal_cell_covering(["fedr"]) == "R_fedr"


def test_structural_equality(figure2):
    clone = RestartTree(
        cell("R_ABC", children=[
            cell("R_A", ["A"]),
            cell("R_BC", children=[cell("R_B", ["B"]), cell("R_C", ["C"])]),
        ]),
    )
    assert figure2.structurally_equal(clone)
    different = RestartTree(cell("R_ABC", ["A", "B", "C"]))
    assert not figure2.structurally_equal(different)


def test_with_name_records_history(figure2):
    renamed = figure2.with_name("fig2-v2", note="renamed for test")
    assert renamed.name == "fig2-v2"
    assert renamed.history == ("renamed for test",)
    assert renamed.structurally_equal(figure2)


# ----------------------------------------------------------------------
# hypothesis: random trees
# ----------------------------------------------------------------------

_ids = st.integers(min_value=0, max_value=10**6)


@st.composite
def random_trees(draw, max_depth=3, max_children=3):
    """Generate a random valid restart tree with unique ids/components."""
    counter = [0]

    def build(depth):
        counter[0] += 1
        my_id = f"cell{counter[0]}"
        n_children = draw(st.integers(0, max_children)) if depth > 0 else 0
        children = [build(depth - 1) for _ in range(n_children)]
        n_components = draw(st.integers(0 if children else 1, 2))
        components = []
        for _ in range(n_components):
            counter[0] += 1
            components.append(f"comp{counter[0]}")
        return RestartCell(my_id, components, children)

    return RestartTree(build(max_depth), name="random")


@given(random_trees())
@settings(max_examples=80, deadline=None)
def test_root_group_covers_everything(tree):
    assert tree.components_restarted_by(tree.root.cell_id) == tree.components


@given(random_trees())
@settings(max_examples=80, deadline=None)
def test_subtree_monotonicity(tree):
    """A child's restart set is always a subset of its parent's (§3.1)."""
    for cell_id in tree.cell_ids:
        parent = tree.parent_of(cell_id)
        if parent is not None:
            assert tree.components_restarted_by(cell_id) <= tree.components_restarted_by(parent)


@given(random_trees())
@settings(max_examples=80, deadline=None)
def test_minimal_covering_is_minimal_and_covers(tree):
    for component in tree.components:
        minimal = tree.minimal_cell_covering([component])
        covered = tree.components_restarted_by(minimal)
        assert component in covered
        # No strict descendant on the path also covers it.
        home = tree.cell_of_component(component)
        for cell_id in tree.path_to_root(home):
            if cell_id == minimal:
                break
            assert component not in tree.components_restarted_by(cell_id) or cell_id == minimal


@given(random_trees())
@settings(max_examples=80, deadline=None)
def test_paths_end_at_root(tree):
    for cell_id in tree.cell_ids:
        path = tree.path_to_root(cell_id)
        assert path[0] == cell_id
        assert path[-1] == tree.root.cell_id


@given(random_trees())
@settings(max_examples=80, deadline=None)
def test_groups_count_equals_cells(tree):
    assert len(tree.groups()) == len(tree.cell_ids)
