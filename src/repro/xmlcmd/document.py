"""Minimal XML element model.

:class:`Element` is deliberately small: a tag, an attribute dict, text
content, and child elements.  It supports the handful of queries the command
schema needs.  Instances are treated as immutable after construction by
convention (the parser and builders never mutate a returned tree).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence


class Element:
    """An XML element: ``<tag attr="...">text<child/>...</tag>``."""

    __slots__ = ("tag", "attrs", "text", "children")

    def __init__(
        self,
        tag: str,
        attrs: Optional[Dict[str, str]] = None,
        text: str = "",
        children: Optional[Sequence["Element"]] = None,
    ) -> None:
        if not tag:
            raise ValueError("element tag must be non-empty")
        self.tag = tag
        self.attrs: Dict[str, str] = dict(attrs or {})
        self.text = text
        self.children: List["Element"] = list(children or [])

    @classmethod
    def _make(
        cls,
        tag: str,
        attrs: Dict[str, str],
        text: str = "",
        children: Optional[List["Element"]] = None,
    ) -> "Element":
        """Adopting constructor for the parser hot path.

        Takes ownership of ``attrs``/``children`` without the defensive
        copies ``__init__`` makes; the caller must hand over freshly built,
        never-shared containers and a non-empty tag.
        """
        self = cls.__new__(cls)
        self.tag = tag
        self.attrs = attrs
        self.text = text
        self.children = children if children is not None else []
        return self

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Attribute value by name."""
        return self.attrs.get(name, default)

    def require(self, name: str) -> str:
        """Attribute value by name; raises ``KeyError`` with context if absent."""
        try:
            return self.attrs[name]
        except KeyError:
            raise KeyError(f"element <{self.tag}> missing attribute {name!r}") from None

    def find(self, tag: str) -> Optional["Element"]:
        """First direct child with the given tag, or ``None``."""
        for child in self.children:
            if child.tag == tag:
                return child
        return None

    def find_all(self, tag: str) -> List["Element"]:
        """All direct children with the given tag."""
        return [child for child in self.children if child.tag == tag]

    def iter(self) -> Iterator["Element"]:
        """Depth-first iteration over this element and all descendants."""
        yield self
        for child in self.children:
            yield from child.iter()

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.tag == other.tag
            and self.attrs == other.attrs
            and self.text == other.text
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.tag,
                tuple(sorted(self.attrs.items())),
                self.text,
                tuple(self.children),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.tag]
        if self.attrs:
            parts.append(f"attrs={self.attrs!r}")
        if self.text:
            parts.append(f"text={self.text!r}")
        if self.children:
            parts.append(f"children={len(self.children)}")
        return f"Element({', '.join(parts)})"
