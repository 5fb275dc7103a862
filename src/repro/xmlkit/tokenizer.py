"""Lexer for XML markup.

Produces a flat token stream (start tags, end tags, text, comments,
processing instructions, doctype declarations) that the tree builder in
:mod:`repro.xmlkit.parser` assembles into a DOM.  The lexer tracks line
and column numbers for error reporting and resolves the five predefined
XML entities plus numeric character references.

A character reference (``&#65;``, ``&#x41;``) must name an XML 1.0
``Char``: tab, newline, carriage return, U+0020–U+D7FF, U+E000–U+FFFD or
U+10000–U+10FFFF.  In strict (XML) mode any other code point, including
``&#0;``, a surrogate and anything past U+10FFFF however many digits it
has, raises :class:`XmlSyntaxError` at the reference's ``&``; in lenient
(HTML) mode the reference stays verbatim, as an unknown entity does.

An ordinary start or end tag is lexed with one regular-expression match.
Anything that match does not take (comments, CDATA, processing
instructions, doctypes, attribute values with references, duplicate
attributes, malformed markup) goes through the character-level lexer,
which owns every error message and position.
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

_NAME = r"[A-Za-z_:][A-Za-z0-9_.:\-]*"
_NAME_RE = re.compile(_NAME)
_WHITESPACE_RE = re.compile(r"[ \t\r\n]+")
_ENTITY_RE = re.compile(rf"&(#x[0-9A-Fa-f]+|#[0-9]+|{_NAME});")

# One ordinary tag: ``</name>``, or ``<name attrs>`` / ``<name attrs/>``
# whose quoted values hold no ``&``.  A name must end where the careful
# lexer's name ends, so the match cannot split one name into a tag name
# and an attribute name.
_WHOLE_NAME = rf"{_NAME}(?![A-Za-z0-9_.:\-])"
_ATTRIBUTE = rf"({_WHOLE_NAME})[ \t\r\n]*=[ \t\r\n]*(?:\"([^\"&]*)\"|'([^'&]*)')"
_TAG_RE = re.compile(
    rf"</(?P<end>{_WHOLE_NAME})[ \t\r\n]*>"
    rf"|<(?P<name>{_WHOLE_NAME})(?P<attrs>(?:[ \t\r\n]*{_ATTRIBUTE})*)[ \t\r\n]*(?P<slash>/?)>"
)
_ATTRIBUTE_RE = re.compile(_ATTRIBUTE)

#: The largest code point (U+10FFFF) has 7 decimal and 6 hex digits.
_MAX_DIGITS = {10: 7, 16: 6}


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


def _is_char(code: int) -> bool:
    """True when *code* is an XML 1.0 ``Char``."""
    if code < 0x20:
        return code in (0x9, 0xA, 0xD)
    return code <= 0xD7FF or 0xE000 <= code <= 0xFFFD or 0x10000 <= code <= 0x10FFFF


def _character(body: str) -> Optional[str]:
    """The character a ``#...`` reference body names, or None if no Char."""
    base, digits = (16, body[2:]) if body[1] == "x" else (10, body[1:])
    digits = digits.lstrip("0") or "0"
    if len(digits) > _MAX_DIGITS[base]:
        return None
    code = int(digits, base)
    return chr(code) if _is_char(code) else None


def _position(text: str, index: int, line: int, column: int) -> Tuple[int, int]:
    """(line, column) of ``text[index]`` when ``text[0]`` is at (line, column)."""
    newlines = text.count("\n", 0, index)
    if newlines:
        return line + newlines, index - text.rfind("\n", 0, index)
    return line, column + index


def resolve_entities(
    text: str,
    line: int = 1,
    column: int = 1,
    strict: bool = True,
    origin: Optional[Tuple[int, int]] = None,
) -> str:
    """Replace entity and character references in *text*.

    With ``strict=True`` an unknown entity or a bare ``&`` raises
    :class:`XmlSyntaxError` at (*line*, *column*), and a character
    reference that names no XML ``Char`` raises at its own ``&``,
    located from *origin*, the position of ``text[0]`` (by default
    (*line*, *column*)).  With ``strict=False`` (HTML mode) both are
    left verbatim, as browsers do.
    """

    def replace(match: "re.Match[str]") -> str:
        body = match.group(1)
        if body[0] == "#":
            character = _character(body)
            if character is not None:
                return character
            if strict:
                raise XmlSyntaxError(
                    f"character reference &{body}; is not an XML character",
                    *_position(text, match.start(), *(origin or (line, column))),
                )
            return match.group(0)
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
        #: Offset of the first character of the current line.
        self._line_start = 0
        self._strict = strict_entities

    # -- position helpers ---------------------------------------------------

    def _move_to(self, end: int) -> None:
        """Move the position to *end*, maintaining line/column.

        Every character moves the column on by one and a newline starts
        the next line at column 1, so the line follows from the run's
        newline count and the column from where its last newline sits.
        """
        newlines = self._source.count("\n", self._pos, end)
        if newlines:
            self._line += newlines
            self._line_start = self._source.rfind("\n", self._pos, end) + 1
        self._pos = end

    def _advance(self, count: int) -> str:
        """Consume and return *count* characters."""
        start = self._pos
        self._move_to(start + count)
        return self._source[start : self._pos]

    @property
    def _column(self) -> int:
        return self._pos - self._line_start + 1

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
        """The token stream; raises on malformed markup."""
        return map(Token._make, self.token_tuples())

    def token_tuples(self) -> Iterator[Tuple[str, str, Optional[Dict[str, str]], bool, int, int]]:
        """The token stream as plain ``(kind, value, attrs, self_closing,
        line, column)`` tuples, for a consumer that unpacks each one.

        The position lives in locals here, and in the attributes only
        around a call into the character-level lexer.
        """
        source = self._source
        length = len(source)
        find, count, rfind = source.find, source.count, source.rfind
        match_tag = _TAG_RE.match
        strict = self._strict
        pos, line, line_start = self._pos, self._line, self._line_start
        while pos < length:
            column = pos - line_start + 1
            token = None
            if source[pos] != "<":
                end = find("<", pos)
                if end < 0:
                    end = length
                data = source[pos:end]
                if "&" in data:
                    data = resolve_entities(data, line, column, strict=strict)
                token = ("text", data, None, False, line, column)
            else:
                tag = match_tag(source, pos)
                if tag is not None:
                    end = tag.end()
                    end_name, name, attributes, slash = tag.group("end", "name", "attrs", "slash")
                    if end_name is not None:
                        token = ("end", end_name, None, False, line, column)
                    elif not attributes:
                        token = ("start", name, {}, slash == "/", line, column)
                    else:
                        pairs = _ATTRIBUTE_RE.findall(attributes)
                        attrs = {key: double or single for key, double, single in pairs}
                        if len(attrs) == len(pairs):  # else the careful lexer reports it
                            token = ("start", name, attrs, slash == "/", line, column)
                if token is None:
                    self._pos, self._line, self._line_start = pos, line, line_start
                    yield self._lex_markup(line, column)
                    pos, line, line_start = self._pos, self._line, self._line_start
                    continue
            newlines = count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = rfind("\n", pos, end) + 1
            pos = end
            yield token
        self._pos, self._line, self._line_start = pos, line, line_start

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
        value = resolve_entities(
            raw, line, column, strict=self._strict, origin=(line, column + 1)
        )
        return attr_name, value

    def _lex_name(self) -> str:
        match = _NAME_RE.match(self._source, self._pos)
        if match is None:
            raise self._error("expected a name")
        self._move_to(match.end())
        return match.group(0)

    def _skip_whitespace(self) -> None:
        run = _WHITESPACE_RE.match(self._source, self._pos)
        if run is not None:
            self._move_to(run.end())


def tokenize_xml(source: str) -> List[Token]:
    """Convenience wrapper: the full token list of *source*."""
    return list(XmlTokenizer(source).tokens())
