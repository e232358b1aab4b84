"""Serializer tests, including the hypothesis parse∘serialize round-trip."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlcmd.document import Element
from repro.xmlcmd.parser import parse_xml
from repro.xmlcmd.serializer import escape_attr, escape_text, serialize_xml


def test_empty_element_self_closes():
    assert serialize_xml(Element("a")) == "<a/>"


def test_attributes_rendered():
    xml = serialize_xml(Element("a", {"x": "1", "y": "two"}))
    assert xml == '<a x="1" y="two"/>'


def test_text_rendered():
    assert serialize_xml(Element("a", text="hi")) == "<a>hi</a>"


def test_children_rendered_in_order():
    element = Element("a", children=[Element("b"), Element("c")])
    assert serialize_xml(element) == "<a><b/><c/></a>"


def test_special_chars_escaped_in_text():
    xml = serialize_xml(Element("a", text="<&>"))
    assert xml == "<a>&lt;&amp;&gt;</a>"


def test_special_chars_escaped_in_attrs():
    xml = serialize_xml(Element("a", {"v": '<&>"'}))
    assert '&lt;' in xml and "&amp;" in xml and "&quot;" in xml


def test_pretty_print_multiline():
    element = Element("a", children=[Element("b", text="t"), Element("c")])
    pretty = serialize_xml(element, compact=False)
    assert pretty == "<a>\n  <b>t</b>\n  <c/>\n</a>"


def test_escape_helpers():
    assert escape_text("a&b") == "a&amp;b"
    assert escape_attr('a"b') == "a&quot;b"


# ----------------------------------------------------------------------
# property: parse(serialize(tree)) == tree
# ----------------------------------------------------------------------

_names = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9._-]{0,8}", fullmatch=True)
# Text without leading/trailing whitespace (the parser strips), printable.
_texts = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=0x2FF, exclude_characters="<>&\"'"),
    max_size=12,
)


def _elements(depth: int):
    children = (
        st.lists(_elements(depth - 1), max_size=3) if depth > 0 else st.just([])
    )
    return st.builds(
        Element,
        tag=_names,
        attrs=st.dictionaries(_names, _texts, max_size=3),
        text=_texts,
        children=children,
    )


@given(_elements(3))
@settings(max_examples=25, deadline=None)
def test_roundtrip_parse_serialize(element):
    assert parse_xml(serialize_xml(element)) == element


@given(st.dictionaries(_names, st.text(max_size=20), max_size=4))
@settings(max_examples=100, deadline=None)
def test_roundtrip_arbitrary_attr_values(attrs):
    """Attribute values survive even with quotes/angle brackets/newlines-ish."""
    element = Element("m", attrs)
    parsed = parse_xml(serialize_xml(element))
    assert parsed.attrs == attrs
