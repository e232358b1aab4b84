"""Tests for the from-scratch XML parser."""

import pytest

from repro.errors import XmlParseError
from repro.xmlcmd.parser import parse_xml


def test_self_closing_element():
    doc = parse_xml("<msg/>")
    assert doc.tag == "msg"
    assert doc.attrs == {}
    assert doc.children == []


def test_attributes_double_and_single_quotes():
    doc = parse_xml("<msg a=\"1\" b='two'/>")
    assert doc.attrs == {"a": "1", "b": "two"}


def test_text_content():
    doc = parse_xml("<m>hello world</m>")
    assert doc.text == "hello world"


def test_text_is_stripped():
    doc = parse_xml("<m>  padded  </m>")
    assert doc.text == "padded"


def test_nested_children():
    doc = parse_xml("<a><b><c/></b><d/></a>")
    assert [c.tag for c in doc.children] == ["b", "d"]
    assert doc.children[0].children[0].tag == "c"


def test_entities_decoded_in_text():
    doc = parse_xml("<m>&lt;tag&gt; &amp; &quot;q&quot; &apos;a&apos;</m>")
    assert doc.text == "<tag> & \"q\" 'a'"


def test_entities_decoded_in_attributes():
    doc = parse_xml('<m v="a&amp;b&lt;c"/>')
    assert doc.attrs["v"] == "a&b<c"


def test_numeric_entities():
    doc = parse_xml("<m>&#65;&#x42;</m>")
    assert doc.text == "AB"


def test_comments_skipped():
    doc = parse_xml("<!-- head --><a><!-- inner --><b/></a><!-- tail -->")
    assert doc.tag == "a"
    assert [c.tag for c in doc.children] == ["b"]


def test_xml_declaration_skipped():
    doc = parse_xml('<?xml version="1.0" encoding="utf-8"?><root/>')
    assert doc.tag == "root"


def test_whitespace_around_document():
    doc = parse_xml("   \n <root/> \n  ")
    assert doc.tag == "root"


def test_names_with_digits_dots_dashes():
    doc = parse_xml("<msg-v2.1 attr-x.y='1'/>")
    assert doc.tag == "msg-v2.1"
    assert doc.attrs["attr-x.y"] == "1"


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "no xml at all",
        "<unclosed>",
        "<a><b></a></b>",
        "<a attr=unquoted/>",
        "<a attr='unterminated/>",
        "<a/><b/>",  # two document elements
        "<a>&unknown;</a>",
        "<a>&unterminated</a>",
        "<1badname/>",
        "<a a='1' a='2'/>",  # duplicate attribute
        "<!-- unterminated comment <a/>",
        "<a><!-- unterminated inner</a>",
        "<a>stray trailing</a>junk",
    ],
)
def test_malformed_inputs_raise(bad):
    with pytest.raises(XmlParseError):
        parse_xml(bad)


def test_parse_error_reports_position():
    with pytest.raises(XmlParseError) as excinfo:
        parse_xml("<a attr=bad/>")
    assert excinfo.value.position >= 0


def test_mixed_text_and_children_text_collected():
    doc = parse_xml("<a>before<b/>after</a>")
    assert doc.children[0].tag == "b"
    assert "before" in doc.text and "after" in doc.text


def test_deep_nesting():
    depth = 50
    text = "".join(f"<n{i}>" for i in range(depth)) + "x" + "".join(
        f"</n{i}>" for i in reversed(range(depth))
    )
    doc = parse_xml(text)
    node = doc
    for _ in range(depth - 1):
        node = node.children[0]
    assert node.text == "x"
