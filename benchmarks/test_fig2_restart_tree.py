"""Figure 2 — the example restart tree and its restart groups.

Rebuilds the paper's 5-cell example (components A, B, C under cells R_A,
R_B, R_C, R_BC, R_ABC), renders it, and verifies the §3.2 group accounting:
"The tree in Figure 2 contains 5 restart groups: three trivial ones and two
non-trivial ones ... The system as a whole is always a restart group."
"""

from conftest import print_banner

from repro.core.render import render_tree
from repro.core.tree import RestartTree, cell


def figure2_tree():
    return RestartTree(
        cell("R_ABC", children=[
            cell("R_A", ["A"]),
            cell("R_BC", children=[cell("R_B", ["B"]), cell("R_C", ["C"])]),
        ]),
        name="figure-2",
    )


def test_fig2():
    tree = figure2_tree()
    print_banner("Figure 2: a restart tree (5 cells over components A, B, C)")
    print(render_tree(tree))
    groups = tree.groups()
    print(f"\nrestart groups ({len(groups)}):")
    for group in groups:
        print(f"  {{{', '.join(sorted(group))}}}")

    # Exactly 5 groups: 3 trivial + {B,C} + the whole system.
    assert len(groups) == 5
    assert sorted(map(sorted, groups)) == [
        ["A"], ["A", "B", "C"], ["B"], ["B", "C"], ["C"],
    ]
    # "when we push the button on R_BC, both B and C are restarted; when we
    # push the button on R_B, only B is restarted."
    assert tree.components_restarted_by("R_BC") == frozenset("BC")
    assert tree.components_restarted_by("R_B") == frozenset("B")
