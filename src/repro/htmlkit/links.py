"""Hyperlink extraction and cluster construction from HTML pages.

Completes the HTML story: parse tag-soup pages, pull their ``<a
href>`` links, and assemble a
:class:`~repro.browse.cluster.DocumentCluster` whose per-page SCs come
from the heading-outline structure extractor.  URLs are normalized
just enough for intra-site clustering (fragments dropped, relative
paths resolved against the page URL).
"""

from __future__ import annotations

import posixpath
from typing import Dict, List, Mapping, Optional, Tuple
from urllib.parse import urljoin, urlsplit, urlunsplit

from repro.browse.cluster import DocumentCluster
from repro.core.pipeline import SCPipeline
from repro.htmlkit.extract import structure_from_dom
from repro.htmlkit.parser import parse_html
from repro.xmlkit.dom import Document


def normalize_url(url: str, base: Optional[str] = None) -> str:
    """Resolve *url* against *base* and strip the fragment.

    Returns an empty string for links that carry no location
    (``javascript:``, ``mailto:``, bare fragments).
    """
    url = url.strip()
    if not url or url.startswith("#"):
        return ""
    lowered = url.lower()
    if lowered.startswith(("javascript:", "mailto:", "data:")):
        return ""
    resolved = urljoin(base, url) if base else url
    scheme, netloc, path, query, _fragment = urlsplit(resolved)
    if path:
        path = posixpath.normpath(path)
        if resolved.endswith("/") and not path.endswith("/"):
            path += "/"
        if path == ".":
            path = ""
    return urlunsplit((scheme, netloc, path, query, ""))


def extract_links(html_source: str, base_url: Optional[str] = None) -> List[str]:
    """All outgoing link URLs of a page, normalized, in document order.

    Duplicates are collapsed (first occurrence wins).
    """
    document = parse_html(html_source)
    seen = set()
    links: List[str] = []
    for anchor in document.root.find_all("a"):
        href = anchor.get("href")
        if not href:
            continue
        normalized = normalize_url(href, base=base_url)
        if normalized and normalized not in seen:
            seen.add(normalized)
            links.append(normalized)
    return links


def cluster_from_pages(
    pages: Mapping[str, str],
    entry_page: str,
    pipeline: Optional[SCPipeline] = None,
    distance_decay: float = 0.7,
) -> DocumentCluster:
    """Build a document cluster from raw HTML pages.

    *pages* maps URL → HTML source.  Each page is structure-extracted
    and pipelined into an SC; links pointing outside *pages* are kept
    by the extractor but dropped by the cluster (the web has edges we
    did not crawl).
    """
    if entry_page not in pages:
        raise ValueError(f"entry page {entry_page!r} not among the pages")
    if pipeline is None:
        pipeline = SCPipeline()

    cluster = DocumentCluster(entry_page=entry_page, distance_decay=distance_decay)
    for url, source in pages.items():
        html_doc = parse_html(source)
        research_paper: Document = structure_from_dom(html_doc)
        sc = pipeline.run(research_paper)
        links = [
            target
            for target in extract_links(source, base_url=url)
            if target in pages and target != url
        ]
        cluster.add_page(url, sc, links=links)
    return cluster
