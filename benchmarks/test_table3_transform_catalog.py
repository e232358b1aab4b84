"""Table 3 — the transformation catalog.

The paper's Table 3 summarises the five trees, the assumptions each
embodies, and when each transformation is useful.  The catalog lives as
data on the transformations module; this bench renders it next to the
*actual* trees produced by the factory functions, verifying that the code's
provenance matches the paper's narrative.
"""

from conftest import print_banner

from repro.core.render import render_compact
from repro.core.transformations import TRANSFORMATION_CATALOG
from repro.experiments.report import format_table
from repro.mercury.trees import TREE_BUILDERS

CATALOG_TO_TREE = {
    "original": "I",
    "depth_augment": "II",
    "subtree_depth_augment": "III",
    "consolidate": "IV",
    "promote": "V",
}


def test_table3():
    rows = []
    for entry in TRANSFORMATION_CATALOG:
        label = CATALOG_TO_TREE[entry.key]
        tree = TREE_BUILDERS[label]()
        rows.append(
            [
                entry.title,
                label,
                render_compact(tree),
                ", ".join(entry.assumptions_embodied),
                entry.useful_when,
            ]
        )

    print_banner("Table 3: summary of restart tree transformations")
    print(
        format_table(
            ["transformation", "tree", "structure", "assumptions", "useful when"],
            rows,
            align_left_columns=5,
        )
    )

    # The catalog must cover exactly the paper's five columns, in order.
    assert [r[1] for r in rows] == ["I", "II", "III", "IV", "V"]
    # Assumption narrative: augmentations embody A_independent; the
    # reductions drop it; promotion also drops A_oracle.
    by_key = {e.key: set(e.assumptions_embodied) for e in TRANSFORMATION_CATALOG}
    assert "A_independent" in by_key["depth_augment"]
    assert "A_independent" in by_key["subtree_depth_augment"]
    assert "A_independent" not in by_key["consolidate"]
    assert by_key["promote"] == {"A_cure", "A_entire"}
    # Every tree embodies A_cure and A_entire.
    for assumptions in by_key.values():
        assert {"A_cure", "A_entire"} <= assumptions
