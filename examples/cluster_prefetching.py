#!/usr/bin/env python3
"""Cluster prefetching over idle bandwidth (paper §1 + §6).

A *document* can be a cluster of hierarchically linked pages.  While
the user reads the entry page, the client's radio is idle; the paper
proposes spending that idle bandwidth on "intelligent prefetching
based on information content and user-profiling".

This example builds a small site (entry page linking to four others),
scores the linked pages by content mass × link distance, prefetches
into the packet cache during a simulated reading pause, and then shows
the follow-up clicks completing instantly from cache.

Run:  python examples/cluster_prefetching.py
"""

import random

from repro.browse import DocumentCluster
from repro.coding import Packetizer
from repro.core import build_sc
from repro.prep import DocumentSender
from repro.search import UserProfile
from repro.transport import (
    PacketCache,
    Prefetcher,
    WirelessChannel,
    transfer_document,
)
from repro.xmlkit import parse_xml


def page(title: str, body: str, repeats: int = 6) -> str:
    filler = (
        " Additional discussion expands on this point with background, "
        "caveats, measurements and worked examples so the page has a "
        "realistic length for a 19.2 kbps link."
    )
    paragraphs = "".join(
        f"<paragraph>{body} (part {i}).{filler * 2}</paragraph>"
        for i in range(repeats)
    )
    return (
        f"<paper><title>{title}</title>"
        f"<section><title>Main</title>{paragraphs}</section></paper>"
    )


SITE = {
    "index": (
        page("Mobile Web Portal", "Entry page linking to the cluster of related pages", 3),
        ["architecture", "evaluation", "api", "legal"],
    ),
    "architecture": (
        page("System Architecture", "Multi-resolution transmission architecture with erasure coding and caching layers", 10),
        ["api"],
    ),
    "evaluation": (
        page("Evaluation Results", "Response time improvements across redundancy ratios and error rates", 8),
        [],
    ),
    "api": (
        page("API Reference", "Function level reference material for integrators", 5),
        [],
    ),
    "legal": (
        page("Legal Notices", "Boilerplate legal text nobody reads", 2),
        [],
    ),
}


def main() -> None:
    # Build the cluster with per-page SCs.
    cluster = DocumentCluster(entry_page="index", distance_decay=0.7)
    for page_id, (source, links) in SITE.items():
        cluster.add_page(page_id, build_sc(parse_xml(source)), links=links)

    scores = cluster.content_scores()
    print("Cluster content scores (mass x link-distance decay):")
    for page_id in sorted(scores, key=scores.get, reverse=True):
        print(f"  {page_id:14s} {scores[page_id]:.3f}")

    # A user profile can bias the order further (paper: "information
    # content AND user-profiling"); here the user has shown interest
    # in evaluation-flavoured words.
    profile = UserProfile()
    profile.accept({"evalu": 5, "result": 3, "respons": 2})
    sender = DocumentSender(Packetizer(packet_size=256, redundancy_ratio=1.5))
    candidates = cluster.prefetch_candidates(sender)
    candidates = [
        candidate._replace(
            score=candidate.score
            + 0.5 * profile.score(dict(cluster.page(candidate.prepared.document_id).vector.items()))
        )
        for candidate in candidates
    ]
    candidates.sort(key=lambda c: -c.score)
    print("\nPrefetch order after profile biasing:",
          [c.prepared.document_id for c in candidates])

    # Reading pause: 30 seconds of idle 19.2 kbps at alpha = 0.15.
    cache = PacketCache()
    channel = WirelessChannel(alpha=0.15, rng=random.Random(11))
    report = Prefetcher(cache).run_idle_window(candidates, channel, idle_seconds=30.0)
    print(f"\nIdle window used {report.air_time_used:.1f}s of air time, "
          f"{report.frames_sent} frames")
    print(f"  fully prefetched: {report.fetched}")
    print(f"  partially cached: {report.partial}")

    # Follow-up clicks: prefetched pages cost zero air time.
    print("\nUser clicks through:")
    for candidate in candidates:
        result = transfer_document(candidate.prepared, channel, cache=cache)
        source = "cache" if result.frames_sent == 0 else "air"
        print(
            f"  {candidate.prepared.document_id:14s} {result.response_time:6.2f}s "
            f"({result.frames_sent:3d} frames, from {source})"
        )


if __name__ == "__main__":
    main()
