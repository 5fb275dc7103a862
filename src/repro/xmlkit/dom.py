"""A small document object model for parsed XML/HTML documents.

Three node kinds suffice for the paper's document class: elements,
text, and comments.  Elements own an ordered child list and an
attribute dict; navigation helpers (``find``, ``find_all``, ``walk``)
cover everything the structural-characteristic generator needs.
Navigation runs downward only: a node holds no link to its parent, so
a document is freed by reference counting alone.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Union

Node = Union["Element", "Text", "Comment"]


class Text:
    """A run of character data."""

    __slots__ = ("data",)

    def __init__(self, data: str) -> None:
        self.data = data

    def __repr__(self) -> str:
        preview = self.data if len(self.data) <= 30 else self.data[:27] + "..."
        return f"Text({preview!r})"


class Comment:
    """An XML comment; preserved so serialization round-trips."""

    __slots__ = ("data",)

    def __init__(self, data: str) -> None:
        self.data = data

    def __repr__(self) -> str:
        return f"Comment({self.data!r})"


class Element:
    """An XML element with a tag, attributes, and ordered children."""

    __slots__ = ("tag", "attributes", "children")

    def __init__(
        self,
        tag: str,
        attributes: Optional[Dict[str, str]] = None,
        children: Optional[List[Node]] = None,
    ) -> None:
        if not tag:
            raise ValueError("element tag must be non-empty")
        self.tag = tag
        self.attributes: Dict[str, str] = dict(attributes or {})
        self.children: List[Node] = []
        for child in children or []:
            self.append(child)

    # -- construction ----------------------------------------------------

    def append(self, child: Node) -> Node:
        """Append *child*; returns the child."""
        if not isinstance(child, (Element, Text, Comment)):
            raise TypeError(f"cannot append {type(child).__name__} to an Element")
        self.children.append(child)
        return child

    def append_text(self, data: str) -> Text:
        """Convenience: append a text node built from *data*."""
        return self.append(Text(data))  # type: ignore[return-value]

    # -- navigation --------------------------------------------------------

    def child_elements(self) -> List["Element"]:
        """Direct element children, in document order."""
        return [child for child in self.children if isinstance(child, Element)]

    def find(self, tag: str) -> Optional["Element"]:
        """First descendant element with the given tag, depth-first."""
        for element in self.iter(tag):
            return element
        return None

    def find_all(self, tag: str) -> List["Element"]:
        """All descendant elements with the given tag, depth-first order."""
        return list(self.iter(tag))

    def iter(self, tag: Optional[str] = None) -> Iterator["Element"]:
        """Depth-first iterator over descendant elements.

        The element itself is not yielded; pass ``tag=None`` to yield
        every descendant element.
        """
        for child in self.children:
            if isinstance(child, Element):
                if tag is None or child.tag == tag:
                    yield child
                yield from child.iter(tag)

    def walk(self) -> Iterator[Node]:
        """Depth-first iterator over all descendant nodes (any kind)."""
        for child in self.children:
            yield child
            if isinstance(child, Element):
                yield from child.walk()

    # -- content -----------------------------------------------------------

    def text_content(self) -> str:
        """Concatenated character data of all descendant text nodes."""
        parts: List[str] = []
        for node in self.walk():
            if isinstance(node, Text):
                parts.append(node.data)
        return "".join(parts)

    def direct_text(self) -> str:
        """Character data of the element's immediate text children only."""
        return "".join(
            child.data for child in self.children if isinstance(child, Text)
        )

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Attribute lookup with a default, mirroring ``dict.get``."""
        return self.attributes.get(name, default)

    def __repr__(self) -> str:
        return f"Element({self.tag!r}, {len(self.children)} children)"


class Document:
    """A parsed document: prolog comments plus a single root element."""

    __slots__ = ("root", "prolog", "doctype")

    def __init__(
        self,
        root: Element,
        prolog: Optional[List[Comment]] = None,
        doctype: Optional[str] = None,
    ) -> None:
        self.root = root
        self.prolog: List[Comment] = list(prolog or [])
        self.doctype = doctype

    def find(self, tag: str) -> Optional[Element]:
        if self.root.tag == tag:
            return self.root
        return self.root.find(tag)

    def find_all(self, tag: str) -> List[Element]:
        found = self.root.find_all(tag)
        if self.root.tag == tag:
            return [self.root] + found
        return found

    def __repr__(self) -> str:
        return f"Document(root={self.root.tag!r})"
