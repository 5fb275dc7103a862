"""Tests for the XML lexer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.xmlkit.errors import XmlSyntaxError
from repro.xmlkit.tokenizer import XmlTokenizer, resolve_entities, tokenize_xml


class TestBasicTokens:
    def test_start_end_text(self):
        tokens = tokenize_xml("<a>hello</a>")
        assert [t.kind for t in tokens] == ["start", "text", "end"]
        assert tokens[0].value == "a"
        assert tokens[1].value == "hello"
        assert tokens[2].value == "a"

    def test_self_closing(self):
        (token,) = tokenize_xml("<br/>")
        assert token.kind == "start"
        assert token.self_closing

    def test_attributes(self):
        (token,) = tokenize_xml('<a href="x" id=\'y\'/>')
        assert token.attrs == {"href": "x", "id": "y"}

    def test_attribute_whitespace_tolerated(self):
        (token,) = tokenize_xml('<a  href = "x" />')
        assert token.attrs == {"href": "x"}

    def test_comment(self):
        tokens = tokenize_xml("<a><!-- note --></a>")
        assert tokens[1].kind == "comment"
        assert tokens[1].value == " note "

    def test_cdata_becomes_text(self):
        tokens = tokenize_xml("<a><![CDATA[<raw & unescaped>]]></a>")
        assert tokens[1].kind == "text"
        assert tokens[1].value == "<raw & unescaped>"

    def test_processing_instruction(self):
        tokens = tokenize_xml('<?xml version="1.0"?><a/>')
        assert tokens[0].kind == "pi"

    def test_doctype(self):
        tokens = tokenize_xml("<!DOCTYPE paper><a/>")
        assert tokens[0].kind == "doctype"
        assert tokens[0].value == "DOCTYPE paper"


class TestEntities:
    def test_predefined(self):
        assert resolve_entities("&lt;&gt;&amp;&apos;&quot;") == "<>&'\""

    def test_numeric(self):
        assert resolve_entities("&#65;&#x42;") == "AB"

    def test_unknown_strict_raises(self):
        with pytest.raises(XmlSyntaxError):
            resolve_entities("&nbsp;", strict=True)

    def test_unknown_lenient_passthrough(self):
        assert resolve_entities("&nbsp;", strict=False) == "&nbsp;"

    def test_bare_ampersand_strict_raises(self):
        with pytest.raises(XmlSyntaxError):
            resolve_entities("AT&T", strict=True)

    def test_in_text_nodes(self):
        tokens = tokenize_xml("<a>1 &lt; 2</a>")
        assert tokens[1].value == "1 < 2"

    def test_in_attributes(self):
        (token,) = tokenize_xml('<a title="a&amp;b"/>')
        assert token.attrs == {"title": "a&b"}


class TestCharacterReferenceRange:
    """A character reference must name an XML 1.0 ``Char``."""

    OUT_OF_RANGE = pytest.mark.parametrize(
        "reference",
        [
            "&#99999999999;",  # past U+10FFFF; chr() used to raise OverflowError
            "&#x110000;",  # one past U+10FFFF; chr() used to raise ValueError
            "&#" + "9" * 5000 + ";",  # past int()'s digit limit
            "&#xD800;",  # a surrogate: used to pass and break the UTF-8 cook
            "&#0;",  # NUL: used to pass and break the UTF-8 cook
            "&#x1;",
            "&#xFFFE;",
        ],
        ids=["overflow", "past-max", "5000-digits", "surrogate", "nul", "control", "fffe"],
    )

    @OUT_OF_RANGE
    def test_strict_text_raises_at_the_reference(self, reference):
        with pytest.raises(XmlSyntaxError, match="not an XML character") as caught:
            tokenize_xml(f"<a>\n  ok {reference}</a>")
        assert (caught.value.line, caught.value.column) == (2, 6)

    @OUT_OF_RANGE
    def test_strict_attribute_raises_at_the_reference(self, reference):
        with pytest.raises(XmlSyntaxError, match="not an XML character") as caught:
            tokenize_xml(f'<a\n  x="ab{reference}"/>')
        assert (caught.value.line, caught.value.column) == (2, 8)

    @OUT_OF_RANGE
    def test_lenient_keeps_the_reference_verbatim(self, reference):
        assert resolve_entities(f"a{reference}b", strict=False) == f"a{reference}b"

    def test_every_char_range_edge_resolves(self):
        edges = [0x9, 0xA, 0xD, 0x20, 0xD7FF, 0xE000, 0xFFFD, 0x10000, 0x10FFFF]
        text = "".join(f"&#{code};&#x{code:X};&#x{code:x};" for code in edges)
        assert resolve_entities(text) == "".join(chr(code) * 3 for code in edges)

    def test_leading_zeros_do_not_count_against_the_range(self):
        assert resolve_entities("&#" + "0" * 5000 + "65;&#x0000000041;") == "AA"


class TestErrors:
    def test_unterminated_comment(self):
        with pytest.raises(XmlSyntaxError, match="comment"):
            tokenize_xml("<a><!-- oops</a>")

    def test_duplicate_attribute(self):
        with pytest.raises(XmlSyntaxError, match="duplicate"):
            tokenize_xml('<a x="1" x="2"/>')

    def test_unquoted_attribute(self):
        with pytest.raises(XmlSyntaxError, match="quoted"):
            tokenize_xml("<a x=1/>")

    def test_missing_equals(self):
        with pytest.raises(XmlSyntaxError):
            tokenize_xml('<a x "1"/>')

    def test_error_carries_position(self):
        try:
            tokenize_xml("<a>\n  <b x=bad/>\n</a>")
        except XmlSyntaxError as err:
            assert err.line == 2
        else:  # pragma: no cover
            pytest.fail("expected XmlSyntaxError")

    def test_unterminated_tag(self):
        with pytest.raises(XmlSyntaxError):
            tokenize_xml("<a href=")


def reference_position(source, offset):
    """(line, column) of *offset*, counted one character at a time."""
    line, column = 1, 1
    for char in source[:offset]:
        if char == "\n":
            line, column = line + 1, 1
        else:
            column += 1
    return line, column


#: Whitespace runs with both line-ending styles, and text that mixes them in.
_SPACE = st.lists(st.sampled_from(["\n", "\r\n", " ", "\t"]), max_size=4).map("".join)
_FILLER = st.lists(
    st.sampled_from(["\n", "\r\n", " ", "\t", "ab", "z."]), max_size=6
).map("".join)
_TEXT = _FILLER.map(lambda filler: "w" + filler)


@st.composite
def _markup_piece(draw):
    """One piece of markup that lexes to exactly one token."""
    kind = draw(st.sampled_from(["comment", "cdata", "pi", "start", "empty"]))
    body = draw(_FILLER)
    if kind == "comment":
        return f"<!--{body}-->"
    if kind == "cdata":
        return f"<![CDATA[{body}]]>"
    if kind == "pi":
        return f"<?pi {body}?>"
    quotes = draw(st.lists(st.sampled_from("'\""), max_size=3))
    attrs = "".join(
        f"{draw(_SPACE) or ' '}k{index}{draw(_SPACE)}={draw(_SPACE)}"
        f"{quote}{draw(_FILLER)}{quote}"
        for index, quote in enumerate(quotes)
    )
    close = "/>" if kind == "empty" else ">"
    return f"<e{attrs}{draw(_SPACE)}{close}"


@st.composite
def _document(draw):
    """(source, pieces): each piece is the source text of one token."""
    pieces = ["<root>"]
    for markup in draw(st.lists(_markup_piece(), max_size=8)):
        if draw(st.booleans()):
            pieces.append(draw(_TEXT))
        pieces.append(markup)
        if markup.startswith("<e") and not markup.endswith("/>"):
            pieces.append(f"</e{draw(_SPACE)}>")
    pieces.append("</root>")
    return "".join(pieces), pieces


class TestPositionsAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(_document())
    def test_every_token_starts_where_the_reference_says(self, document):
        source, pieces = document
        tokens = tokenize_xml(source)
        assert len(tokens) == len(pieces)
        offset = 0
        for token, piece in zip(tokens, pieces):
            expected = reference_position(source, offset)
            assert (token.line, token.column) == expected, piece
            offset += len(piece)

    @pytest.mark.parametrize(
        "source, message, line, column",
        [
            ("<a>\r\n  <!-- oops\n</a>", "unterminated comment", 2, 7),
            ('<a>\n<b\n  x "1"/>', "missing '='", 3, 5),
            ("<a>\n  <b x=\r\nbad/>", "must be quoted", 3, 1),
            ('<a\r\n  x="one\ntwo &bogus;"/>', "unknown entity", 2, 5),
        ],
    )
    def test_error_positions_pinned(self, source, message, line, column):
        with pytest.raises(XmlSyntaxError, match=message) as caught:
            tokenize_xml(source)
        assert (caught.value.line, caught.value.column) == (line, column)
