#!/usr/bin/env python3
"""Search-driven browsing session through the Figure 1 prototype.

Builds a small XML corpus, indexes it with the search-engine
substrate, issues a keyword query, and browses the top hits over a
lossy channel with query-relevance (MQIC) transmission ordering.
Irrelevant hits are abandoned as soon as enough content has arrived —
the scenario the paper's introduction motivates.

Run:  python examples/search_and_browse.py
"""

import random

from repro.prep import PrepRequest
from repro.prototype import (
    DatabaseGateway,
    DocumentTransmitterService,
    MobileBrowser,
    ObjectRequestBroker,
)
from repro.search import SearchEngine
from repro.transport import PacketCache, WirelessChannel
from repro.xmlkit import parse_xml


def make_paper(title: str, topic_sentences: list) -> str:
    sections = []
    for index, sentence in enumerate(topic_sentences, start=1):
        sections.append(
            f"""  <section>
    <title>Part {index}</title>
    <paragraph>{sentence} This section elaborates with background
    material, detailed derivations, experimental methodology and a
    discussion of limitations that pads the document to a realistic
    length for transmission over a slow wireless link.</paragraph>
    <paragraph>Further remarks continue the argument and connect it to
    adjacent literature so that later sections can build on it.</paragraph>
  </section>"""
        )
    body = "\n".join(sections)
    return f"""<paper>
  <title>{title}</title>
  <abstract>
    <paragraph>{topic_sentences[0]}</paragraph>
  </abstract>
{body}
</paper>"""


CORPUS = {
    "mobile-caching": make_paper(
        "Cache Management for Mobile Databases",
        [
            "Caching data items in mobile clients saves scarce wireless bandwidth.",
            "Cache invalidation over the air requires careful protocol design.",
            "Energy consumption interacts with cache residency decisions.",
        ],
    ),
    "web-browsing": make_paper(
        "Multi-Resolution Browsing of Web Documents in a Mobile Web",
        [
            "Browsing web documents over wireless links benefits from multi-resolution transmission.",
            "Information content ranks organizational units for early delivery.",
            "Mobile web browsing sessions abandon irrelevant documents quickly.",
        ],
    ),
    "disk-spindown": make_paper(
        "Adaptive Disk Spin-down Policies for Portable Computers",
        [
            "Spinning down the disk saves battery energy in portable computers.",
            "Adaptive thresholds outperform fixed timeouts for disk power management.",
            "Trace-driven evaluation quantifies the energy and latency trade-off.",
        ],
    ),
    "recommender": make_paper(
        "A Hyperlink-Based Recommender for Web Navigation",
        [
            "Recommender systems advise users which hyperlink to follow next.",
            "Learning from user feedback refines the recommendation model.",
            "Web navigation assistance reduces wasted page retrievals.",
        ],
    ),
}


def main() -> None:
    # Index the corpus.
    engine = SearchEngine()
    gateway = DatabaseGateway(pipeline=engine._pipeline)  # share the lemmatizer
    for document_id, source in CORPUS.items():
        engine.add_document(document_id, parse_xml(source))
        gateway.put(document_id, source)
    print(f"Indexed {engine.size} documents")

    # Search.
    query_text = "mobile web browsing"
    hits = engine.search(query_text, limit=3)
    print(f"\nQuery {query_text!r} — top hits:")
    for hit in hits:
        print(f"  {hit.document_id:16s} score={hit.score:.3f}")

    # Browse the hits over a lossy channel through the prototype.
    broker = ObjectRequestBroker()
    broker.register("transmitter", DocumentTransmitterService(gateway))
    channel = WirelessChannel(bandwidth_kbps=19.2, alpha=0.15, rng=random.Random(42))
    browser = MobileBrowser(broker, channel, cache=PacketCache())

    print("\nBrowsing (paragraph LOD, MQIC order, F = 0.4 stop rule):")
    for hit in hits:
        result = browser.browse(
            hit.document_id,
            relevance_threshold=0.4,
            request=PrepRequest(query=query_text, lod="paragraph"),
        )
        verdict = "early-stop" if result.terminated_early else "full download"
        print(
            f"  {result.document_id:16s} {verdict:13s} "
            f"{result.response_time:6.2f}s  "
            f"{len(result.rendered)} unit(s) rendered"
        )
        if result.rendered:
            first = result.rendered[0]
            preview = first.text[:60].strip()
            print(f"      first rendered unit {first.label}: {preview!r}...")


if __name__ == "__main__":
    main()
