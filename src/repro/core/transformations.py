"""Restart-tree transformations (paper §4, summarised in Table 3).

Four pure functions evolve a restart tree, mirroring the paper's evolution
of Mercury's tree I into tree V:

``depth_augment``
    §4.1, Figure 3 (tree I → II).  Give each component attached to a cell
    its own child cell, enabling independent partial restarts.  Useful when
    ``f_A + f_B > 0`` — i.e. some failures are curable by restarting a
    proper subset of the group.

``replace_component``
    §4.2 first half (tree II → II').  Replace one component by the parts it
    was split into, each getting its own sibling cell.  This models
    re-architecting a component (fedrcom → fedr + pbcom) along MTTR/MTTF
    lines; the tree operation is the bookkeeping for that split.

``insert_joint_node``
    §4.2 second half, Figure 4 (tree II' → III).  Subtree depth
    augmentation: push existing sibling cells down under a new joint cell,
    so correlated failures (``f_{A,B} > 0``) can be cured by restarting the
    pair in parallel without restarting the whole tree.

``consolidate_groups``
    §4.3, Figure 5 (tree III → IV).  Merge sibling cells into one cell with
    all their components attached, removing the ability to restart them
    individually.  Useful when ``f_A + f_B << f_{A,B}`` — restarting either
    alone is (almost) never sufficient, so the finer cells only add serial
    restart latency.

``promote_component``
    §4.4, Figure 6 (tree IV → V).  Move a high-MTTR component's annotation
    from its own cell up to the parent cell, forcing it to restart together
    with everything below while its (cheap) siblings remain independently
    restartable.  Eliminates guess-too-low oracle mistakes on the promoted
    component; "tree V can be better only when the oracle is faulty".

All functions return a new :class:`~repro.core.tree.RestartTree` and append
a provenance entry to its history.  ``TRANSFORMATION_CATALOG`` reproduces
Table 3's rows as data (used by the Table 3 bench).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.tree import RestartCell, RestartTree
from repro.errors import TransformationError


# ----------------------------------------------------------------------
# internal helpers
# ----------------------------------------------------------------------


def _leaf_id_for(component: str, taken: Iterable[str]) -> str:
    base = f"R_{component}"
    taken_set = set(taken)
    if base not in taken_set:
        return base
    index = 2
    while f"{base}_{index}" in taken_set:
        index += 1
    return f"{base}_{index}"


# ----------------------------------------------------------------------
# the transformations
# ----------------------------------------------------------------------


def depth_augment(
    tree: RestartTree, cell_id: Optional[str] = None, name: Optional[str] = None
) -> RestartTree:
    """Give every component attached to ``cell_id`` its own child cell.

    Defaults to the root (the paper's tree I → tree II step).  Components
    already in child cells are untouched.  Raises if the cell attaches no
    components (nothing to augment).
    """
    target_id = cell_id if cell_id is not None else tree.root.cell_id
    target = tree.get_cell(target_id)
    if not target.components:
        raise TransformationError(
            f"cell {target_id!r} attaches no components; depth augmentation "
            "would be a no-op"
        )
    taken = list(tree.cell_ids)
    new_leaves = []
    for component in sorted(target.components):
        leaf_id = _leaf_id_for(component, taken)
        taken.append(leaf_id)
        new_leaves.append(RestartCell(leaf_id, components=[component]))

    def rebuild(node: RestartCell) -> RestartCell:
        if node.cell_id == target_id:
            return RestartCell(
                node.cell_id,
                (),
                tuple(node.children) + tuple(new_leaves),
            )
        return RestartCell(
            node.cell_id,
            node.components,
            [rebuild(c) for c in node.children],
        )

    note = f"depth_augment({target_id}): components {sorted(target.components)} -> own cells"
    return RestartTree(
        rebuild(tree.root), name=name or f"{tree.name}+depth", history=tree.history + (note,)
    )


def replace_component(
    tree: RestartTree,
    component: str,
    parts: Sequence[str],
    name: Optional[str] = None,
) -> RestartTree:
    """Replace ``component`` by its split ``parts`` (tree II → II').

    The component's cell loses the old annotation; each part gets its own
    sibling cell at the same level (if the old cell attached *only* the old
    component and had no children, the old cell is removed entirely).
    """
    if len(parts) < 2:
        raise TransformationError("a component split needs at least two parts")
    overlap = set(parts) & set(tree.components)
    if overlap:
        raise TransformationError(f"parts {sorted(overlap)} already exist in the tree")
    home_id = tree.cell_of_component(component)
    home = tree.get_cell(home_id)
    taken = list(tree.cell_ids)
    part_cells = []
    for part in parts:
        leaf_id = _leaf_id_for(part, taken)
        taken.append(leaf_id)
        part_cells.append(RestartCell(leaf_id, components=[part]))

    def copy(node: RestartCell) -> RestartCell:
        return RestartCell(
            node.cell_id,
            node.components,
            [copy(c) for c in node.children],
        )

    def rebuild(node: RestartCell) -> RestartCell:
        new_children: List[RestartCell] = []
        for child in node.children:
            if child.cell_id != home_id:
                new_children.append(rebuild(child))
                continue
            remaining = child.components - {component}
            grandchildren = [copy(c) for c in child.children]
            if remaining or grandchildren:
                # The old cell survives (it held other components/children);
                # the split parts become its siblings.
                new_children.append(
                    RestartCell(child.cell_id, remaining, grandchildren)
                )
            new_children.extend(part_cells)
        return RestartCell(node.cell_id, node.components, new_children)

    if home_id == tree.root.cell_id:
        old_root = tree.root
        root = RestartCell(
            old_root.cell_id,
            old_root.components - {component},
            [copy(c) for c in old_root.children] + part_cells,
        )
    else:
        root = rebuild(tree.root)
    note = f"replace_component({component} -> {list(parts)})"
    return RestartTree(
        root, name=name or f"{tree.name}+split", history=tree.history + (note,)
    )


def insert_joint_node(
    tree: RestartTree,
    child_cell_ids: Sequence[str],
    joint_cell_id: str,
    name: Optional[str] = None,
) -> RestartTree:
    """Push sibling cells down under a new joint cell (tree II' → III).

    The named cells must be siblings; they become children of a new cell
    inserted in their place.  The new cell's button restarts them together
    — the cure for correlated failures with ``f_{A,B} > 0`` — while their
    individual buttons remain.
    """
    if len(child_cell_ids) < 2:
        raise TransformationError("a joint node needs at least two children")
    if tree.has_cell(joint_cell_id):
        raise TransformationError(f"cell id {joint_cell_id!r} already in use")
    parents = {tree.parent_of(cid) for cid in child_cell_ids}
    if len(parents) != 1:
        raise TransformationError(
            f"cells {list(child_cell_ids)} are not siblings (parents: {parents})"
        )
    parent_id = parents.pop()
    if parent_id is None:
        raise TransformationError("cannot regroup the root cell")
    moving = [tree.get_cell(cid) for cid in child_cell_ids]
    moving_ids = set(child_cell_ids)
    joint = RestartCell(joint_cell_id, (), moving)

    def rebuild(node: RestartCell) -> RestartCell:
        if node.cell_id == parent_id:
            new_children: List[RestartCell] = []
            placed = False
            for child in node.children:
                if child.cell_id in moving_ids:
                    if not placed:
                        new_children.append(joint)
                        placed = True
                    continue
                new_children.append(rebuild(child))
            return RestartCell(node.cell_id, node.components, new_children)
        return RestartCell(
            node.cell_id,
            node.components,
            [rebuild(c) for c in node.children],
        )

    note = f"insert_joint_node({joint_cell_id} over {list(child_cell_ids)})"
    return RestartTree(
        rebuild(tree.root), name=name or f"{tree.name}+joint", history=tree.history + (note,)
    )


def consolidate_groups(
    tree: RestartTree,
    cell_ids: Sequence[str],
    merged_cell_id: str,
    name: Optional[str] = None,
) -> RestartTree:
    """Merge sibling cells into one cell attaching all their components
    (tree III → IV).

    The merged cell is a leaf: individual restartability inside the group is
    deliberately given up, so a failure in any member bounces them all in
    parallel — recovery proportional to ``max(MTTR_i)`` instead of the
    serial ``sum`` the escalating oracle would otherwise pay.
    """
    if len(cell_ids) < 2:
        raise TransformationError("consolidation needs at least two cells")
    if tree.has_cell(merged_cell_id) and merged_cell_id not in cell_ids:
        raise TransformationError(f"cell id {merged_cell_id!r} already in use")
    parents = {tree.parent_of(cid) for cid in cell_ids}
    if len(parents) != 1:
        raise TransformationError(
            f"cells {list(cell_ids)} are not siblings (parents: {parents})"
        )
    parent_id = parents.pop()
    if parent_id is None:
        raise TransformationError("cannot consolidate the root cell")
    merged_components = frozenset().union(
        *(tree.components_restarted_by(cid) for cid in cell_ids)
    )
    merged = RestartCell(merged_cell_id, merged_components)
    merging_ids = set(cell_ids)

    def rebuild(node: RestartCell) -> RestartCell:
        if node.cell_id == parent_id:
            new_children: List[RestartCell] = []
            placed = False
            for child in node.children:
                if child.cell_id in merging_ids:
                    if not placed:
                        new_children.append(merged)
                        placed = True
                    continue
                new_children.append(rebuild(child))
            return RestartCell(node.cell_id, node.components, new_children)
        return RestartCell(
            node.cell_id,
            node.components,
            [rebuild(c) for c in node.children],
        )

    note = f"consolidate_groups({list(cell_ids)} -> {merged_cell_id})"
    return RestartTree(
        rebuild(tree.root),
        name=name or f"{tree.name}+consolidated",
        history=tree.history + (note,),
    )


def promote_component(
    tree: RestartTree, component: str, name: Optional[str] = None
) -> RestartTree:
    """Move ``component``'s annotation to its cell's parent (tree IV → V).

    The component's own cell disappears (if it attached only this component
    and had no children); thereafter any restart reaching the component also
    restarts its former siblings' subtrees — structurally preventing the
    guess-too-low mistake of restarting the expensive component alone.
    """
    home_id = tree.cell_of_component(component)
    parent_id = tree.parent_of(home_id)
    if parent_id is None:
        raise TransformationError(
            f"component {component!r} is attached to the root; nothing to promote to"
        )
    home = tree.get_cell(home_id)

    def rebuild(node: RestartCell) -> Optional[RestartCell]:
        if node.cell_id == home_id:
            remaining = node.components - {component}
            children = [
                built
                for built in (rebuild(c) for c in node.children)
                if built is not None
            ]
            if not remaining and not children:
                return None
            return RestartCell(node.cell_id, remaining, children)
        new_children = []
        for child in node.children:
            built = rebuild(child)
            if built is not None:
                new_children.append(built)
        components = node.components
        if node.cell_id == parent_id:
            components = components | {component}
        return RestartCell(node.cell_id, components, new_children)

    root = rebuild(tree.root)
    assert root is not None  # parent_id exists, so the root survives
    note = f"promote_component({component}: {home_id} -> {parent_id})"
    return RestartTree(
        root, name=name or f"{tree.name}+promoted", history=tree.history + (note,)
    )


# ----------------------------------------------------------------------
# Table 3 as data
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Transformation:
    """One row of the paper's Table 3 transformation catalog."""

    key: str
    title: str
    paper_step: str
    effect: str
    assumptions_embodied: Tuple[str, ...]
    useful_when: str


TRANSFORMATION_CATALOG: Tuple[Transformation, ...] = (
    Transformation(
        key="original",
        title="Original restart tree",
        paper_step="tree I",
        effect="Any component failure triggers a restart of the entire system.",
        assumptions_embodied=("A_cure", "A_entire"),
        useful_when="all component MTTRs are roughly equal",
    ),
    Transformation(
        key="depth_augment",
        title="Simple depth augmentation",
        paper_step="tree I -> II (Figure 3)",
        effect=(
            "Allows components to be independently restarted, without "
            "affecting others."
        ),
        assumptions_embodied=("A_independent", "A_oracle", "A_cure", "A_entire"),
        useful_when="f_{A,B} > 0 or f_A + f_B > 0",
    ),
    Transformation(
        key="subtree_depth_augment",
        title="Subtree depth augmentation (component split + joint node)",
        paper_step="tree II -> II' -> III (Figure 4)",
        effect=(
            "Saves the high cost of restarting pbcom whenever fedr fails "
            "(fedr fails often)."
        ),
        assumptions_embodied=("A_independent", "A_oracle", "A_cure", "A_entire"),
        useful_when="f_{A,B} > 0 or f_A + f_B > 0",
    ),
    Transformation(
        key="consolidate",
        title="Group consolidation",
        paper_step="tree III -> IV (Figure 5)",
        effect=(
            "Reduces the delay in restarting component pairs with "
            "correlated failures (ses and str)."
        ),
        assumptions_embodied=("A_oracle", "A_cure", "A_entire"),
        useful_when="f_A + f_B << f_{A,B}",
    ),
    Transformation(
        key="promote",
        title="Node promotion",
        paper_step="tree IV -> V (Figure 6)",
        effect=(
            "Encodes information that prevents the oracle from making "
            "guess-too-low mistakes."
        ),
        assumptions_embodied=("A_cure", "A_entire"),
        useful_when="the oracle is faulty, i.e. it can guess wrong",
    ),
)
