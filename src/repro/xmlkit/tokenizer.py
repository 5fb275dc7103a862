"""Lexer for XML markup.

Produces a flat token stream (start tags, end tags, text, comments,
processing instructions, doctype declarations) that the tree builder in
:mod:`repro.xmlkit.parser` assembles into a DOM.  The lexer tracks line
and column numbers for error reporting and resolves the five predefined
XML entities plus numeric character references.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.xmlkit.errors import XmlSyntaxError

PREDEFINED_ENTITIES: Dict[str, str] = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_NAME_RE = re.compile(r"[A-Za-z_:][A-Za-z0-9_.:\-]*")
_WHITESPACE_RE = re.compile(r"[ \t\r\n]+")
_ENTITY_RE = re.compile(r"&(#x[0-9A-Fa-f]+|#[0-9]+|[A-Za-z_:][A-Za-z0-9_.:\-]*);")


class Token(NamedTuple):
    """One lexical unit of the markup stream.

    ``kind`` is one of ``start``, ``end``, ``text``, ``comment``,
    ``pi``, ``doctype``.  For start tags, ``attrs`` carries the
    attribute dict and ``self_closing`` marks ``<tag/>`` forms.
    """

    kind: str
    value: str
    attrs: Optional[Dict[str, str]]
    self_closing: bool
    line: int
    column: int


def resolve_entities(text: str, line: int = 1, column: int = 1, strict: bool = True) -> str:
    """Replace entity and character references in *text*.

    With ``strict=True`` an unknown entity raises
    :class:`XmlSyntaxError`; with ``strict=False`` (HTML mode) it is
    left verbatim, as browsers do.
    """

    def replace(match: "re.Match[str]") -> str:
        body = match.group(1)
        if body.startswith("#x") or body.startswith("#X"):
            return chr(int(body[2:], 16))
        if body.startswith("#"):
            return chr(int(body[1:]))
        if body in PREDEFINED_ENTITIES:
            return PREDEFINED_ENTITIES[body]
        if strict:
            raise XmlSyntaxError(f"unknown entity &{body};", line, column)
        return match.group(0)

    if "&" not in text:
        return text
    resolved = _ENTITY_RE.sub(replace, text)
    if strict and "&" in _ENTITY_RE.sub("", text):
        raise XmlSyntaxError("bare '&' must be escaped as &amp;", line, column)
    return resolved


class XmlTokenizer:
    """Single-pass lexer over an XML source string."""

    def __init__(self, source: str, strict_entities: bool = True) -> None:
        self._source = source
        self._pos = 0
        self._line = 1
        self._column = 1
        self._strict = strict_entities

    # -- position helpers ---------------------------------------------------

    def _advance(self, count: int) -> str:
        """Consume *count* characters, maintaining line/column.

        Every character moves the column on by one and a newline starts
        the next line at column 1, so the position after a run follows
        from the run's newline count and where its last newline sits.
        """
        consumed = self._source[self._pos : self._pos + count]
        newlines = consumed.count("\n")
        if newlines:
            self._line += newlines
            self._column = len(consumed) - consumed.rfind("\n")
        else:
            self._column += len(consumed)
        self._pos += count
        return consumed

    def _error(self, message: str) -> XmlSyntaxError:
        return XmlSyntaxError(message, self._line, self._column)

    def _at_end(self) -> bool:
        return self._pos >= len(self._source)

    def _peek(self, length: int = 1) -> str:
        return self._source[self._pos : self._pos + length]

    def _consume_until(self, terminator: str, context: str) -> str:
        """Consume and return text up to *terminator* (which is also consumed)."""
        index = self._source.find(terminator, self._pos)
        if index < 0:
            raise self._error(f"unterminated {context}")
        text = self._advance(index - self._pos)
        self._advance(len(terminator))
        return text

    # -- tokenization --------------------------------------------------------

    def tokens(self) -> Iterator[Token]:
        """Yield the token stream; raises on malformed markup."""
        while not self._at_end():
            line, column = self._line, self._column
            if self._peek() == "<":
                yield self._lex_markup(line, column)
            else:
                yield self._lex_text(line, column)

    def _lex_text(self, line: int, column: int) -> Token:
        index = self._source.find("<", self._pos)
        if index < 0:
            index = len(self._source)
        raw = self._advance(index - self._pos)
        data = resolve_entities(raw, line, column, strict=self._strict)
        return Token("text", data, None, False, line, column)

    def _lex_markup(self, line: int, column: int) -> Token:
        if self._peek(4) == "<!--":
            self._advance(4)
            data = self._consume_until("-->", "comment")
            return Token("comment", data, None, False, line, column)
        if self._peek(9) == "<![CDATA[":
            self._advance(9)
            data = self._consume_until("]]>", "CDATA section")
            return Token("text", data, None, False, line, column)
        if self._peek(2) == "<?":
            self._advance(2)
            data = self._consume_until("?>", "processing instruction")
            return Token("pi", data, None, False, line, column)
        if self._peek(2) == "<!":
            self._advance(2)
            data = self._consume_doctype()
            return Token("doctype", data, None, False, line, column)
        if self._peek(2) == "</":
            self._advance(2)
            name = self._lex_name()
            self._skip_whitespace()
            if self._peek() != ">":
                raise self._error(f"malformed end tag </{name}")
            self._advance(1)
            return Token("end", name, None, False, line, column)
        return self._lex_start_tag(line, column)

    def _consume_doctype(self) -> str:
        """Consume a <!DOCTYPE ...> declaration, honoring internal subsets."""
        depth = 1
        start = self._pos
        while depth > 0:
            if self._at_end():
                raise self._error("unterminated doctype declaration")
            char = self._advance(1)
            if char == "<":
                depth += 1
            elif char == ">":
                depth -= 1
        return self._source[start : self._pos - 1].strip()

    def _lex_start_tag(self, line: int, column: int) -> Token:
        self._advance(1)  # consume '<'
        name = self._lex_name()
        attrs: Dict[str, str] = {}
        while True:
            self._skip_whitespace()
            if self._at_end():
                raise self._error(f"unterminated start tag <{name}")
            if self._peek(2) == "/>":
                self._advance(2)
                return Token("start", name, attrs, True, line, column)
            if self._peek() == ">":
                self._advance(1)
                return Token("start", name, attrs, False, line, column)
            attr_name, attr_value = self._lex_attribute(name)
            if attr_name in attrs:
                raise self._error(f"duplicate attribute {attr_name!r} on <{name}>")
            attrs[attr_name] = attr_value

    def _lex_attribute(self, tag_name: str) -> Tuple[str, str]:
        attr_name = self._lex_name()
        self._skip_whitespace()
        if self._peek() != "=":
            raise self._error(
                f"attribute {attr_name!r} on <{tag_name}> is missing '='"
            )
        self._advance(1)
        self._skip_whitespace()
        quote = self._peek()
        if quote not in ("'", '"'):
            raise self._error(
                f"attribute {attr_name!r} on <{tag_name}> must be quoted"
            )
        line, column = self._line, self._column
        self._advance(1)
        raw = self._consume_until(quote, f"attribute value of {attr_name!r}")
        value = resolve_entities(raw, line, column, strict=self._strict)
        return attr_name, value

    def _lex_name(self) -> str:
        match = _NAME_RE.match(self._source, self._pos)
        if match is None:
            raise self._error("expected a name")
        self._advance(match.end() - match.start())
        return match.group(0)

    def _skip_whitespace(self) -> None:
        run = _WHITESPACE_RE.match(self._source, self._pos)
        if run is not None:
            self._advance(run.end() - self._pos)


def tokenize_xml(source: str) -> List[Token]:
    """Convenience wrapper: the full token list of *source*."""
    return list(XmlTokenizer(source).tokens())
