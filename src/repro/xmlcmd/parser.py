"""Single-pass parser for the XML subset used by the command language.

Supported: elements, attributes (single- or double-quoted), text content,
the five predefined entities, comments, XML declarations, self-closing tags,
and arbitrary nesting.  Not supported (not used by the command language):
namespaces, DTDs, processing instructions other than the declaration, and
CDATA sections.  Unsupported constructs raise
:class:`~repro.errors.XmlParseError` rather than being silently skipped.

Implementation notes (this is the bus hot path, see BENCH_3.json): the
tokenizer is a single forward scan over ``(text, pos)`` locals — no cursor
object, no per-character method calls.  Names and ``name="value"`` pairs are
sliced out by precompiled regexes (one C-level match per token), attribute
dicts are built once and handed to :meth:`Element._make` without a defensive
copy, and tag/attribute names are ``sys.intern``-ed so the schema layer's
dict lookups hit pointer-equal keys.
"""

from __future__ import annotations

import re
from sys import intern as _intern
from typing import Dict, List, Tuple

from repro.errors import XmlParseError
from repro.xmlcmd.document import Element

_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "quot": '"',
    "apos": "'",
}

# XML whitespace only — str.strip()/\s would also eat U+00A0 etc.
_WS = " \t\r\n"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9._-]*")
#: One attribute: optional whitespace, name, ``=`` (with optional
#: whitespace), then a quoted value.  Entity decoding happens afterwards,
#: only when the sliced value contains ``&``.
_ATTR_RE = re.compile(
    r"[ \t\r\n]*([A-Za-z_][A-Za-z0-9._-]*)[ \t\r\n]*=[ \t\r\n]*"
    r"(?:\"([^\"]*)\"|'([^']*)')"
)


def _decode_entities(raw: str, at: int) -> str:
    """Replace ``&name;`` and ``&#NN;`` references; reject bare ampersands."""
    if "&" not in raw:
        return raw
    out = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = raw.find(";", i + 1)
        if end == -1:
            raise XmlParseError(f"unterminated entity reference at offset {at + i}", at + i)
        name = raw[i + 1 : end]
        if name.startswith("#x") or name.startswith("#X"):
            out.append(chr(int(name[2:], 16)))
        elif name.startswith("#"):
            out.append(chr(int(name[1:])))
        elif name in _ENTITIES:
            out.append(_ENTITIES[name])
        else:
            raise XmlParseError(f"unknown entity &{name}; at offset {at + i}", at + i)
        i = end + 1
    return "".join(out)


def _skip_misc(text: str, pos: int) -> int:
    """Skip whitespace, comments and the XML declaration between elements."""
    n = len(text)
    while True:
        while pos < n and text[pos] in _WS:
            pos += 1
        if text.startswith("<!--", pos):
            end = text.find("-->", pos + 4)
            if end == -1:
                raise XmlParseError(f"unterminated comment at offset {pos}", pos)
            pos = end + 3
        elif text.startswith("<?xml", pos):
            end = text.find("?>", pos + 5)
            if end == -1:
                raise XmlParseError(f"unterminated XML declaration at offset {pos}", pos)
            pos = end + 2
        else:
            return pos


def _fail_start_tag(text: str, pos: int) -> XmlParseError:
    """Diagnose why the attribute scan stopped inside a start tag."""
    n = len(text)
    if pos >= n:
        return XmlParseError(f"unterminated start tag at offset {pos}", pos)
    m = _NAME_RE.match(text, pos)
    if m is None:
        return XmlParseError(f"expected a name at offset {pos}", pos)
    pos = m.end()
    while pos < n and text[pos] in _WS:
        pos += 1
    if pos >= n or text[pos] != "=":
        return XmlParseError(f"expected '=' at offset {pos}", pos)
    pos += 1
    while pos < n and text[pos] in _WS:
        pos += 1
    if pos >= n or text[pos] not in "'\"":
        return XmlParseError(f"attribute value must be quoted at offset {pos}", pos)
    return XmlParseError(f"unterminated attribute value at offset {pos}", pos)


def _parse_element(text: str, pos: int) -> Tuple[Element, int]:
    """Parse one element starting at ``text[pos] == '<'``; returns (element, pos)."""
    n = len(text)
    m = _NAME_RE.match(text, pos + 1)
    if m is None:
        raise XmlParseError(f"expected a name at offset {pos + 1}", pos + 1)
    tag = _intern(m.group())
    pos = m.end()

    # -- start-tag attributes ------------------------------------------
    attrs: Dict[str, str] = {}
    while True:
        am = _ATTR_RE.match(text, pos)
        if am is None:
            break
        name = _intern(am.group(1))
        if name in attrs:
            raise XmlParseError(
                f"duplicate attribute {name!r} at offset {am.start(1)}", am.start(1)
            )
        value = am.group(2)
        if value is None:
            value = am.group(3)
            if "&" in value:
                value = _decode_entities(value, am.start(3))
        elif "&" in value:
            value = _decode_entities(value, am.start(2))
        attrs[name] = value
        pos = am.end()
    while pos < n and text[pos] in _WS:
        pos += 1
    if text.startswith("/>", pos):
        return Element._make(tag, attrs), pos + 2
    if pos >= n or text[pos] != ">":
        raise _fail_start_tag(text, pos)
    pos += 1

    # -- content: interleaved text, children, comments ------------------
    text_parts: List[str] = []
    children: List[Element] = []
    while True:
        next_lt = text.find("<", pos)
        if next_lt == -1:
            raise XmlParseError(f"unterminated element <{tag}> at offset {pos}", pos)
        if next_lt > pos:
            raw = text[pos:next_lt]
            text_parts.append(_decode_entities(raw, pos) if "&" in raw else raw)
            pos = next_lt
        if text.startswith("</", pos):
            m = _NAME_RE.match(text, pos + 2)
            if m is None:
                raise XmlParseError(f"expected a name at offset {pos + 2}", pos + 2)
            if m.group() != tag:
                raise XmlParseError(
                    f"mismatched closing tag </{m.group()}> for <{tag}>"
                    f" at offset {pos}",
                    pos,
                )
            pos = m.end()
            while pos < n and text[pos] in _WS:
                pos += 1
            if pos >= n or text[pos] != ">":
                raise XmlParseError(f"expected '>' at offset {pos}", pos)
            content = "".join(text_parts).strip(_WS) if text_parts else ""
            return Element._make(tag, attrs, content, children), pos + 1
        if text.startswith("<!--", pos):
            end = text.find("-->", pos + 4)
            if end == -1:
                raise XmlParseError(f"unterminated comment at offset {pos}", pos)
            pos = end + 3
            continue
        child, pos = _parse_element(text, pos)
        children.append(child)


def parse_xml(text: str) -> Element:
    """Parse ``text`` into an :class:`~repro.xmlcmd.document.Element` tree.

    Raises :class:`~repro.errors.XmlParseError` for malformed input or
    trailing content after the document element.

    >>> doc = parse_xml('<msg type="ping"><from>fd</from></msg>')
    >>> doc.tag, doc.get('type'), doc.child_text('from')
    ('msg', 'ping', 'fd')
    """
    pos = _skip_misc(text, 0)
    if pos >= len(text) or text[pos] != "<":
        raise XmlParseError(f"expected document element at offset {pos}", pos)
    root, pos = _parse_element(text, pos)
    pos = _skip_misc(text, pos)
    if pos != len(text):
        raise XmlParseError(
            f"unexpected content after document element at offset {pos}", pos
        )
    return root
