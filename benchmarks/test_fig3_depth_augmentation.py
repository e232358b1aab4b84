"""Figure 3 — simple depth augmentation (tree I → tree II).

Renders the transformation and demonstrates its point with the paper's own
example: "rtu takes less than 6 seconds to restart, whereas fedrcom takes
over 21 seconds.  Whenever rtu fails, we would need to restart the entire
system ... hence incurring four times longer downtime than necessary."
"""

from conftest import print_banner

from repro.core.render import render_side_by_side, render_tree
from repro.core.transformations import depth_augment
from repro.experiments.recovery import measure_recovery
from repro.mercury.trees import tree_i


def test_fig3(trials):
    before = tree_i()
    after = depth_augment(before, name="tree-II")
    print_banner("Figure 3: simple depth augmentation gives tree II")
    print(render_side_by_side(render_tree(before), render_tree(after)))

    # Structure: each component gained its own cell.
    assert len(after.groups()) == 6
    for component in before.components:
        assert after.components_restarted_by(
            after.cell_of_component(component)
        ) == frozenset([component])

    # Behaviour: an rtu failure no longer pays fedrcom's restart.
    rtu_before = measure_recovery(before, "rtu", trials=trials, seed=310).mean
    rtu_after = measure_recovery(after, "rtu", trials=trials, seed=311).mean
    print(f"\nrtu failure recovery: {rtu_before:.2f}s (tree I) -> "
          f"{rtu_after:.2f}s (tree II), {rtu_before / rtu_after:.1f}x better")
    assert rtu_before / rtu_after > 3.5  # the paper's "four times longer"
