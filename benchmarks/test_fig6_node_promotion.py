"""Figure 6 — node promotion (tree IV → tree V).

"Keep low-MTTR components low in the tree, and promote high-MTTR components
toward the top."  pbcom's annotation moves onto the joint cell, so a pbcom
failure always restarts [fedr, pbcom] together and the oracle *cannot*
guess too low.
"""

from conftest import print_banner

from repro.core.render import render_side_by_side, render_tree
from repro.core.transformations import promote_component
from repro.mercury.trees import tree_iv


def test_fig6():
    before = tree_iv()
    after = promote_component(before, "pbcom", name="tree-V")
    print_banner("Figure 6: node promotion gives tree V")
    print(render_side_by_side(render_tree(before), render_tree(after)))

    # pbcom now lives on the internal joint cell; its old leaf is gone.
    assert after.cell_of_component("pbcom") == "R_fedr_pbcom"
    assert not after.has_cell("R_pbcom")
    # Any restart reaching pbcom also bounces fedr ("a free fedr restart",
    # which moreover rejuvenates fedr, §4.4).
    assert after.components_restarted_by(
        after.cell_of_component("pbcom")
    ) == frozenset(["fedr", "pbcom"])
    # The guess-too-low site is structurally eliminated: the deepest cell
    # containing pbcom IS the minimal cure cell for the joint failure.
    assert after.minimal_cell_covering(["fedr", "pbcom"]) == after.cell_of_component("pbcom")
    # fedr keeps its cheap private button.
    assert after.components_restarted_by("R_fedr") == frozenset(["fedr"])
    # "Tree IV is strictly more flexible than tree V": tree IV can restart
    # pbcom alone, tree V cannot.
    assert before.components_restarted_by(
        before.cell_of_component("pbcom")
    ) == frozenset(["pbcom"])
    print("\nMTTR consequences are measured in the §4.4 bench "
          "(test_sec44_node_promotion_mttr).")
