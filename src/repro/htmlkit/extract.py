"""Heuristic extraction of ``research-paper`` structure from HTML.

The paper's §6 names this as work in progress: "algorithms to extract
the structure of an HTML document from its content", so the
multi-resolution scheme can serve the vast body of unstructured HTML.
We implement the natural heading-outline heuristic:

* ``<h1>``..``<h6>`` define an outline; consecutive heading levels map
  to section → subsection → subsubsection;
* block-level text runs (``<p>``, ``<li>``, bare text between
  headings) become paragraphs;
* ``<b>``/``<strong>``/``<i>``/``<em>`` content is preserved as
  ``emph`` inline markup, since specially formatted words qualify as
  keywords (§3.3);
* the document ``<title>`` (or the first ``<h1>``) becomes the paper
  title.

The output is a :class:`~repro.xmlkit.dom.Document` valid against the
``research-paper`` DTD, so everything downstream (SC generation,
multi-resolution transmission) works on converted HTML unchanged.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.htmlkit.parser import parse_html
from repro.xmlkit.dom import Document, Element, Text

_HEADING_TAGS = {"h1": 1, "h2": 2, "h3": 3, "h4": 4, "h5": 5, "h6": 6}
_PARAGRAPH_TAGS = frozenset(["p", "li", "blockquote", "pre", "dd", "dt"])
_EMPHASIS_TAGS = frozenset(["b", "strong", "i", "em", "u"])
_SKIP_TAGS = frozenset(["script", "style", "head", "title", "nav"])
_WS_RE = re.compile(r"\s+")


def html_to_research_paper(source: str) -> Document:
    """Convert an HTML string to a ``research-paper`` XML document."""
    html_doc = parse_html(source)
    return structure_from_dom(html_doc)


def structure_from_dom(html_doc: Document) -> Document:
    """Convert an already-parsed HTML DOM to ``research-paper`` XML."""
    title = _document_title(html_doc)
    blocks = _collect_blocks(html_doc.root)

    paper = Element("paper")
    title_el = paper.append(Element("title"))
    title_el.append_text(title)

    # Outline levels: 1 → section, 2 → subsection, 3+ → subsubsection.
    # Heading levels are normalized so the smallest heading seen maps
    # to level 1 (a page whose headings start at <h2> still yields
    # sections, not subsections).
    heading_levels = sorted({level for kind, level, _ in blocks if kind == "heading"})
    level_rank = {level: rank + 1 for rank, level in enumerate(heading_levels)}

    current: List[Element] = [paper]  # current[i] is the open container at depth i

    for kind, level, payload in blocks:
        if kind == "heading":
            rank = min(level_rank[level], 3)
            _open_unit(current, rank, payload)
        else:
            container = _paragraph_container(current)
            paragraph = container.append(Element("paragraph"))
            _fill_paragraph(paragraph, payload)

    _absorb_leading_paragraphs(paper)
    return Document(paper)


def _document_title(html_doc: Document) -> str:
    title_el = html_doc.root.find("title")
    if title_el is not None:
        text = _normalize(title_el.text_content())
        if text:
            return text
    h1 = html_doc.root.find("h1")
    if h1 is not None:
        text = _normalize(h1.text_content())
        if text:
            return text
    return "Untitled document"


Block = Tuple[str, int, object]


def _collect_blocks(root: Element) -> List[Block]:
    """Flatten the HTML body into (heading | paragraph) blocks."""
    blocks: List[Block] = []
    pending_text: List[object] = []

    def flush() -> None:
        if pending_text:
            text = _normalize(
                "".join(
                    node.data if isinstance(node, Text) else node.text_content()
                    for node in pending_text
                )
            )
            if text:
                blocks.append(("paragraph", 0, list(pending_text)))
            pending_text.clear()

    def visit(element: Element) -> None:
        for child in element.children:
            if isinstance(child, Text):
                if child.data.strip():
                    pending_text.append(child)
                continue
            if not isinstance(child, Element):
                continue
            tag = child.tag
            if tag in _SKIP_TAGS:
                continue
            if tag in _HEADING_TAGS:
                flush()
                text = _normalize(child.text_content())
                if text:
                    blocks.append(("heading", _HEADING_TAGS[tag], text))
                continue
            if tag in _PARAGRAPH_TAGS:
                flush()
                if _normalize(child.text_content()):
                    blocks.append(("paragraph", 0, list(child.children)))
                continue
            if tag in _EMPHASIS_TAGS:
                pending_text.append(child)
                continue
            visit(child)

    body = root.find("body") or root
    visit(body)
    flush()
    return blocks


def _open_unit(current: List[Element], rank: int, title: str) -> None:
    """Open a section/subsection/subsubsection at outline depth *rank*."""
    tags = {1: "section", 2: "subsection", 3: "subsubsection"}
    # A heading deeper than (open depth + 1) is clamped: an <h3> right
    # under the paper opens a section, not an orphan subsubsection.
    rank = min(rank, len(current))
    del current[rank:]
    unit = current[-1].append(Element(tags[rank]))
    title_el = unit.append(Element("title"))
    title_el.append_text(title)
    current.append(unit)


def _paragraph_container(current: List[Element]) -> Element:
    return current[-1]


def _fill_paragraph(paragraph: Element, payload: object) -> None:
    """Copy HTML inline content into a research-paper paragraph."""
    if isinstance(payload, str):
        paragraph.append_text(payload)
        return
    for node in payload:  # type: ignore[assignment]
        if isinstance(node, Text):
            paragraph.append_text(_normalize_keep_edges(node.data))
        elif isinstance(node, Element):
            if node.tag in _EMPHASIS_TAGS:
                emph = paragraph.append(Element("emph"))
                emph.append_text(_normalize(node.text_content()))
            else:
                text = _normalize(node.text_content())
                if text:
                    paragraph.append_text(text)


def _absorb_leading_paragraphs(paper: Element) -> None:
    """Move paragraphs that precede the first section into an abstract.

    The research-paper DTD does not allow bare paragraphs under
    <paper>; text before the first heading plays the role the abstract
    plays in the paper's own Table 1 ("the abstract is considered as
    Section 0").
    """
    leading = []
    for child in list(paper.children):
        if isinstance(child, Element) and child.tag == "paragraph":
            leading.append(child)
            paper.children.remove(child)
    if leading:
        abstract = Element("abstract")
        for paragraph in leading:
            abstract.append(paragraph)
        # Insert after title/author, before the first section.
        insert_at = 0
        for index, child in enumerate(paper.children):
            if isinstance(child, Element) and child.tag in ("title", "author"):
                insert_at = index + 1
        paper.children.insert(insert_at, abstract)


def _normalize(text: str) -> str:
    return _WS_RE.sub(" ", text).strip()


def _normalize_keep_edges(text: str) -> str:
    return _WS_RE.sub(" ", text)
