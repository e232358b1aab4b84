"""Canonical XML serialization.

The serializer is the inverse of :mod:`repro.xmlcmd.parser` on its supported
subset: ``parse_xml(serialize_xml(e)) == e`` for every well-formed element
tree (property-tested in the test suite).
"""

from __future__ import annotations

from typing import List

from repro.xmlcmd.document import Element


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    # ``&`` first: every entity's expansion contains one.  A literal chain —
    # no table walk — because the values on the wire are short and clean
    # (see DESIGN.md §8 for why this is not ``str.translate``).
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attr(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def serialize_xml(element: Element, indent: int = 0, compact: bool = True) -> str:
    """Serialize an element tree to a string.

    ``compact=True`` (the wire format) emits no inter-element whitespace, so
    text round-trips exactly.  ``compact=False`` pretty-prints for logs.
    """
    if compact:
        return _serialize_compact(element)
    lines: List[str] = []
    _serialize_pretty(element, indent, lines)
    return "\n".join(lines)


def _attrs_fragment(element: Element) -> str:
    if not element.attrs:
        return ""
    return "".join(
        f' {name}="{escape_attr(value)}"' for name, value in element.attrs.items()
    )


def _serialize_compact(element: Element) -> str:
    attrs = _attrs_fragment(element)
    inner = escape_text(element.text) + "".join(
        _serialize_compact(child) for child in element.children
    )
    if not inner:
        return f"<{element.tag}{attrs}/>"
    return f"<{element.tag}{attrs}>{inner}</{element.tag}>"


def _serialize_pretty(element: Element, depth: int, lines: List[str]) -> None:
    pad = "  " * depth
    attrs = _attrs_fragment(element)
    if not element.children and not element.text:
        lines.append(f"{pad}<{element.tag}{attrs}/>")
        return
    if not element.children:
        lines.append(
            f"{pad}<{element.tag}{attrs}>{escape_text(element.text)}</{element.tag}>"
        )
        return
    lines.append(f"{pad}<{element.tag}{attrs}>")
    if element.text:
        lines.append(f"{pad}  {escape_text(element.text)}")
    for child in element.children:
        _serialize_pretty(child, depth + 1, lines)
    lines.append(f"{pad}</{element.tag}>")
