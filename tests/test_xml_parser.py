"""Tests for the XML tree builder."""

import pytest

from repro.xmlkit.dom import Comment, Element, Text
from repro.xmlkit.errors import XmlSyntaxError
from repro.xmlkit.parser import parse_fragment, parse_xml


class TestWellFormed:
    def test_simple_document(self):
        doc = parse_xml("<paper><title>Hi</title></paper>")
        assert doc.root.tag == "paper"
        title = doc.root.find("title")
        assert title is not None
        assert title.text_content() == "Hi"

    def test_nesting(self):
        doc = parse_xml("<a><b><c/></b><b/></a>")
        assert [child.tag for child in doc.root.child_elements()] == ["b", "b"]
        assert doc.root.find("c") is not None

    def test_mixed_content(self):
        doc = parse_xml("<p>one <em>two</em> three</p>")
        kinds = [type(node).__name__ for node in doc.root.children]
        assert kinds == ["Text", "Element", "Text"]
        assert doc.root.text_content() == "one two three"

    def test_prolog_comment_and_doctype(self):
        doc = parse_xml("<!DOCTYPE paper><!-- top --><paper/>")
        assert doc.doctype == "DOCTYPE paper"
        assert len(doc.prolog) == 1
        assert doc.prolog[0].data == " top "

    def test_whitespace_outside_root_ok(self):
        doc = parse_xml("\n  <a/>\n")
        assert doc.root.tag == "a"

    def test_attributes_survive(self):
        doc = parse_xml('<a id="root"><b class="x"/></a>')
        assert doc.root.get("id") == "root"
        assert doc.root.find("b").get("class") == "x"

    def test_comments_inside_elements(self):
        doc = parse_xml("<a><!-- inner --><b/></a>")
        assert any(isinstance(child, Comment) for child in doc.root.children)


class TestViolations:
    @pytest.mark.parametrize(
        "source",
        [
            "<a><b></a></b>",       # mismatched nesting
            "<a>",                  # unclosed
            "<a/><b/>",             # two roots
            "text<a/>",             # data before root
            "<a/>trailing",         # data after root
            "</a>",                 # stray end tag
            "",                     # empty
        ],
    )
    def test_rejected(self, source):
        with pytest.raises(XmlSyntaxError):
            parse_xml(source)


class TestFragment:
    def test_multiple_top_level_nodes(self):
        nodes = parse_fragment("<a/>text<b/>")
        assert len(nodes) == 3
        assert isinstance(nodes[0], Element)
        assert isinstance(nodes[1], Text)


class TestNavigation:
    def test_iter_depth_first(self):
        doc = parse_xml("<a><b><c/></b><d/></a>")
        assert [el.tag for el in doc.root.iter()] == ["b", "c", "d"]

    def test_find_all(self):
        doc = parse_xml("<a><b/><c><b/></c></a>")
        assert len(doc.root.find_all("b")) == 2

    def test_document_find_includes_root(self):
        doc = parse_xml("<a><b/></a>")
        assert doc.find("a") is doc.root
        assert doc.find_all("a") == [doc.root]

    def test_direct_text(self):
        doc = parse_xml("<p>own <em>nested</em> text</p>")
        assert doc.root.direct_text() == "own  text"
