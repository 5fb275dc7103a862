"""Tree builder: assembles tokenizer output into a DOM.

Enforces the well-formedness rules the structural-characteristic
generator depends on: a single root element, properly nested tags, and
no character data outside the root (other than whitespace).
"""

from __future__ import annotations

from typing import List, Optional

from repro.xmlkit.dom import Comment, Document, Element, Text
from repro.xmlkit.errors import XmlSyntaxError
from repro.xmlkit.tokenizer import XmlTokenizer


def parse_xml(source: str) -> Document:
    """Parse well-formed XML *source* into a :class:`Document`.

    Raises :class:`XmlSyntaxError` on any well-formedness violation.
    """
    prolog: List[Comment] = []
    doctype: Optional[str] = None
    root: Optional[Element] = None
    stack: List[Element] = []
    # The open element; the parser appends the nodes it builds itself,
    # which need no ``Element.append`` type check.  Nodes keep no link
    # to their parent, so a parsed document holds no reference cycle.
    parent: Optional[Element] = None

    for kind, value, attrs, self_closing, line, column in XmlTokenizer(source).token_tuples():
        if kind == "text":
            if parent is not None:
                if value:
                    parent.children.append(Text(value))
            elif value.strip():
                raise XmlSyntaxError("character data outside the root element", line, column)
        elif kind == "start":
            element = Element(value, attrs)
            if parent is not None:
                parent.children.append(element)
            elif root is None:
                root = element
            else:
                raise XmlSyntaxError(f"second root element <{value}>", line, column)
            if not self_closing:
                stack.append(element)
                parent = element
        elif kind == "end":
            if parent is None:
                raise XmlSyntaxError(f"unexpected end tag </{value}>", line, column)
            if parent.tag != value:
                raise XmlSyntaxError(
                    f"end tag </{value}> does not match open <{parent.tag}>", line, column
                )
            stack.pop()
            parent = stack[-1] if stack else None
        elif kind == "comment":
            comment = Comment(value)
            if parent is not None:
                parent.children.append(comment)
            else:
                prolog.append(comment)
        elif kind == "doctype":
            if root is not None:
                raise XmlSyntaxError(
                    "doctype declaration must precede the root element", line, column
                )
            doctype = value
        # "pi": processing instructions carry no document content

    if stack:
        raise XmlSyntaxError(f"unclosed element <{stack[-1].tag}>", 0, 0)
    if root is None:
        raise XmlSyntaxError("document has no root element", 0, 0)
    return Document(root, prolog=prolog, doctype=doctype)


def parse_fragment(source: str) -> List[object]:
    """Parse an XML fragment (no single-root requirement).

    Returns the list of top-level nodes.  Used by tests and by the
    HTML structure extractor when grafting converted content.
    """
    return parse_xml(f"<fragment>{source}</fragment>").root.children
