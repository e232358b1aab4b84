"""The §7 future-work item, implemented: deriving the restart tree
automatically.

The paper's authors evolved Mercury's tree by hand from two years of
operational data.  `repro.analysis.model` encodes the same reasoning as an
analytic downtime-rate model plus a greedy search over the §4
transformations (`repro optimize` runs the first derivation below).  Given
Mercury's numbers it reproduces their conclusion — consolidate ses/str,
insert the [fedr, pbcom] joint node, promote pbcom — and this example then lets you see how the *optimal tree changes* when the
system's characteristics change:

* with a perfect oracle, promotion stops paying (the paper's own duality);
* if the ses/str coupling were rare, consolidation stops paying;
* if fedr were stable, the joint node stops paying.

Run with::

    python examples/optimize_tree.py
"""

from repro.analysis.model import mercury_system_model, optimize_tree
from repro.core.render import render_tree
from repro.mercury.trees import tree_ii_prime


def derive(title, model):
    result = optimize_tree(model, tree_ii_prime())
    print(f"--- {title}")
    print(
        f"    downtime rate {result.initial_downtime_rate * 1e3:.3f} -> "
        f"{result.downtime_rate * 1e3:.3f} ms/s "
        f"({result.improvement_factor:.2f}x)"
    )
    if result.steps:
        for step in result.steps:
            print(f"    applied {step.description}")
    else:
        print("    no transformation improves this system")
    print()
    return result


def main() -> None:
    print("Starting point (tree II', the fedrcom split done, nothing else):\n")
    print(render_tree(tree_ii_prime()))
    print()

    result = derive(
        "Mercury as observed (faulty oracle, ses/str coupled, pbcom joint failures)",
        mercury_system_model(tree_ii_prime()),
    )
    print("Derived tree (structurally the paper's tree V):\n")
    print(render_tree(result.tree))
    print()

    derive(
        "...but with a PERFECT oracle: promotion no longer pays "
        "(the paper: 'tree V can be better only when the oracle is faulty')",
        mercury_system_model(tree_ii_prime(), oracle_error_rate=0.0),
    )

    model = mercury_system_model(tree_ii_prime())
    model.resync_pairs[0] = model.resync_pairs[0].__class__(
        "ses", "str", 0.0, 0.0, induce_probability=0.05
    )
    derive(
        "...and with ses/str (nearly) decoupled: consolidation no longer pays",
        model,
    )


if __name__ == "__main__":
    main()
