"""Restart cells, restart trees and restart groups (paper §3.1–3.2).

A *restart cell* is the unit of recovery: each cell "conceptually has a
button that can be pushed to cause the restart of the entire subtree rooted
at that node".  Components (actual software processes) are *attached* to
cells; restarting a cell restarts every component attached anywhere in its
subtree.

The paper attaches components to leaves, but node promotion (§4.4) places a
component annotation on an internal node (tree V attaches ``pbcom`` to the
parent of ``fedr``'s cell), so this implementation allows annotations on any
cell.

A *restart group* is the subtree rooted at a cell, "in close analogy with
process groups in UNIX"; every cell therefore identifies one group, and the
whole system is always a restart group (the root).

Trees are immutable: transformations (:mod:`repro.core.transformations`)
produce new trees, recording provenance in :attr:`RestartTree.history`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import (
    DuplicateCellError,
    TreeError,
    UnknownCellError,
    UnknownComponentError,
)


class RestartCell:
    """One node of a restart tree.

    Attributes
    ----------
    cell_id:
        Unique identifier within the tree (``"R_ses_str"``).
    components:
        Component names attached directly to this cell.
    children:
        Child cells.

    How pushing the cell's button recovers is not a property of the tree:
    the supervisor's :class:`~repro.core.recovery_strategies.StrategyMap`
    decides it per cell.
    """

    __slots__ = ("cell_id", "components", "children")

    def __init__(
        self,
        cell_id: str,
        components: Iterable[str] = (),
        children: Sequence["RestartCell"] = (),
    ) -> None:
        if not cell_id:
            raise TreeError("cell_id must be non-empty")
        self.cell_id = cell_id
        self.components: FrozenSet[str] = frozenset(components)
        self.children: Tuple["RestartCell", ...] = tuple(children)
        if not self.components and not self.children:
            raise TreeError(
                f"cell {cell_id!r} is empty: a cell must attach at least one "
                "component or contain child cells"
            )

    @property
    def is_leaf(self) -> bool:
        """Whether this cell has no child cells."""
        return not self.children

    def subtree_cells(self) -> Iterator["RestartCell"]:
        """Depth-first iteration over this cell and all descendants."""
        yield self
        for child in self.children:
            yield from child.subtree_cells()

    def subtree_components(self) -> FrozenSet[str]:
        """All components restarted when this cell's button is pushed."""
        out = set(self.components)
        for child in self.children:
            out |= child.subtree_components()
        return frozenset(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [repr(self.cell_id)]
        if self.components:
            parts.append(f"components={sorted(self.components)}")
        if self.children:
            parts.append(f"children={len(self.children)}")
        return f"RestartCell({', '.join(parts)})"


def cell(
    cell_id: str,
    components: Iterable[str] = (),
    children: Sequence[RestartCell] = (),
) -> RestartCell:
    """Convenience constructor matching the figures' visual nesting."""
    return RestartCell(cell_id, components, children)


class RestartTree:
    """An immutable restart tree with indexed lookups.

    Example — the paper's Figure 2 tree (cells R_A..R_ABC over components
    A, B, C)::

        tree = RestartTree(
            cell("R_ABC", children=[
                cell("R_A", components=["A"]),
                cell("R_BC", children=[
                    cell("R_B", components=["B"]),
                    cell("R_C", components=["C"]),
                ]),
            ]),
            name="figure-2",
        )
        tree.components_restarted_by("R_BC")   # frozenset({'B', 'C'})
    """

    def __init__(
        self,
        root: RestartCell,
        name: str = "tree",
        history: Sequence[str] = (),
    ) -> None:
        self.root = root
        self.name = name
        #: Transformation provenance: human-readable description per step.
        self.history: Tuple[str, ...] = tuple(history)
        self._cells: Dict[str, RestartCell] = {}
        self._parents: Dict[str, Optional[str]] = {}
        self._component_home: Dict[str, str] = {}
        self._index(root, None)

    def _index(self, node: RestartCell, parent_id: Optional[str]) -> None:
        if node.cell_id in self._cells:
            raise DuplicateCellError(f"duplicate cell id {node.cell_id!r}")
        self._cells[node.cell_id] = node
        self._parents[node.cell_id] = parent_id
        for component in node.components:
            if component in self._component_home:
                raise TreeError(
                    f"component {component!r} attached to both "
                    f"{self._component_home[component]!r} and {node.cell_id!r}"
                )
            self._component_home[component] = node.cell_id
        for child in node.children:
            self._index(child, node.cell_id)

    def __deepcopy__(self, memo: dict) -> "RestartTree":
        # Immutable after construction (the transformation operators build
        # new trees), so a station snapshot shares it — exactly as a fresh
        # ``MercuryStation(tree=...)`` aliases the caller's tree object.
        return self

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    @property
    def components(self) -> FrozenSet[str]:
        """All components covered by this tree."""
        return frozenset(self._component_home)

    @property
    def cell_ids(self) -> List[str]:
        """All cell ids, in depth-first order."""
        return [c.cell_id for c in self.root.subtree_cells()]

    def get_cell(self, cell_id: str) -> RestartCell:
        """Cell by id; raises :class:`UnknownCellError` if absent."""
        try:
            return self._cells[cell_id]
        except KeyError:
            raise UnknownCellError(f"no cell {cell_id!r} in tree {self.name!r}") from None

    def has_cell(self, cell_id: str) -> bool:
        """Whether the tree contains a cell with this id."""
        return cell_id in self._cells

    def parent_of(self, cell_id: str) -> Optional[str]:
        """Parent cell id, or ``None`` for the root."""
        self.get_cell(cell_id)
        return self._parents[cell_id]

    def cell_of_component(self, component: str) -> str:
        """Id of the cell the component is attached to."""
        try:
            return self._component_home[component]
        except KeyError:
            raise UnknownComponentError(
                f"component {component!r} not attached in tree {self.name!r}"
            ) from None

    def components_restarted_by(self, cell_id: str) -> FrozenSet[str]:
        """Every component bounced when this cell's button is pushed."""
        return self.get_cell(cell_id).subtree_components()

    def path_to_root(self, cell_id: str) -> List[str]:
        """Cell ids from ``cell_id`` up to and including the root."""
        path = [cell_id]
        current = self.parent_of(cell_id)
        while current is not None:
            path.append(current)
            current = self._parents[current]
        return path

    def is_ancestor(self, ancestor_id: str, descendant_id: str) -> bool:
        """Whether ``ancestor_id`` lies on ``descendant_id``'s path to root
        (a cell is considered its own ancestor)."""
        return ancestor_id in self.path_to_root(descendant_id)

    def depth_of(self, cell_id: str) -> int:
        """Root has depth 0; children of the root depth 1; and so on."""
        return len(self.path_to_root(cell_id)) - 1

    @property
    def height(self) -> int:
        """Length of the longest root-to-cell path (root-only tree: 0)."""
        return max(self.depth_of(cid) for cid in self.cell_ids)

    # ------------------------------------------------------------------
    # restart groups (§3.2)
    # ------------------------------------------------------------------

    def groups(self) -> List[FrozenSet[str]]:
        """Every restart group, as the component set of each cell's subtree.

        The paper counts one group per cell (trivial leaf groups included)
        and notes the whole system is always a group — which here is the
        root's entry.
        """
        return [node.subtree_components() for node in self.root.subtree_cells()]

    def minimal_cell_covering(self, components: Iterable[str]) -> str:
        """Lowest cell whose button restarts at least ``components``.

        This is the *minimal cure node* of §3.3 for a failure whose cure set
        is ``components``: restarting this cell (or any ancestor — by
        construction of the tree, ancestors are supersets) cures it, and no
        deeper single cell does.
        """
        wanted = frozenset(components)
        if not wanted:
            raise TreeError("cannot cover an empty component set")
        unknown = wanted - self.components
        if unknown:
            raise UnknownComponentError(
                f"components {sorted(unknown)} not in tree {self.name!r}"
            )
        # Walk up from one member's home cell; the first subtree covering
        # everything is minimal on that path, and since every covering cell
        # is an ancestor of the member's home, the path contains them all.
        start = self.cell_of_component(next(iter(sorted(wanted))))
        for cell_id in self.path_to_root(start):
            if wanted <= self.components_restarted_by(cell_id):
                return cell_id
        raise TreeError("root must cover all components")  # pragma: no cover

    # ------------------------------------------------------------------
    # structural equality
    # ------------------------------------------------------------------

    def structurally_equal(self, other: "RestartTree") -> bool:
        """Whether the trees have identical shape, cell ids and component
        attachments (the tree's name and history are not compared)."""
        return _cells_equal(self.root, other.root)

    def with_name(self, name: str, note: Optional[str] = None) -> "RestartTree":
        """Copy of this tree with a new name (and optional history entry)."""
        history = self.history + ((note,) if note else ())
        return RestartTree(self.root, name=name, history=history)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RestartTree({self.name!r}, cells={len(self._cells)}, "
            f"components={sorted(self.components)})"
        )


def _cells_equal(a: RestartCell, b: RestartCell) -> bool:
    if a.cell_id != b.cell_id or a.components != b.components:
        return False
    if len(a.children) != len(b.children):
        return False
    return all(_cells_equal(x, y) for x, y in zip(a.children, b.children))
