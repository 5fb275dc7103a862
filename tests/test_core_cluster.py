"""Tests for document clusters and cluster prefetching."""

import random

import pytest

from repro.coding.packets import Packetizer
from repro.browse.cluster import ClusterError, DocumentCluster
from repro.core.pipeline import build_sc
from repro.prep import DocumentSender
from repro.transport.cache import PacketCache
from repro.transport.channel import WirelessChannel
from repro.transport.prefetch import Prefetcher
from repro.xmlkit.parser import parse_xml


def make_sc(words: str, repeats: int = 5):
    body = " ".join([words] * repeats)
    return build_sc(
        parse_xml(
            f"<paper><title>Page</title><section><title>S</title>"
            f"<paragraph>{body}</paragraph></section></paper>"
        )
    )


def build_cluster():
    """index → {overview, details}; details → appendix; orphan floats."""
    cluster = DocumentCluster(entry_page="index")
    cluster.add_page("index", make_sc("mobile web browsing portal entry"), links=["overview", "details"])
    cluster.add_page("overview", make_sc("overview of the architecture and design decisions", repeats=8))
    cluster.add_page("details", make_sc("detailed treatment", repeats=3), links=["appendix"])
    cluster.add_page("appendix", make_sc("appendix tables", repeats=2))
    cluster.add_page("orphan", make_sc("unlinked page"))
    return cluster


class TestStructure:
    def test_membership(self):
        cluster = build_cluster()
        assert "index" in cluster
        assert len(cluster) == 5

    def test_unknown_page_raises(self):
        cluster = build_cluster()
        with pytest.raises(ClusterError):
            cluster.page("nope")
        with pytest.raises(ClusterError):
            cluster.links("nope")

    def test_dangling_links_skipped(self):
        cluster = DocumentCluster(entry_page="a")
        cluster.add_page("a", make_sc("words"), links=["ghost", "b"])
        cluster.add_page("b", make_sc("more words"))
        assert cluster.links("a") == ["b"]

    def test_distances(self):
        cluster = build_cluster()
        distances = cluster.distances()
        assert distances == {"index": 0, "overview": 1, "details": 1, "appendix": 2}

    def test_orphans_detected(self):
        assert build_cluster().unreachable_pages() == {"orphan"}


class TestScoring:
    def test_scores_normalized_over_reachable(self):
        cluster = build_cluster()
        scores = cluster.content_scores()
        assert set(scores) == {"index", "overview", "details", "appendix"}
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_distance_decay(self):
        """The appendix has less mass AND more hops: lowest score."""
        cluster = build_cluster()
        scores = cluster.content_scores()
        assert scores["appendix"] == min(
            scores[p] for p in ("overview", "details", "appendix")
        )

    def test_bigger_pages_score_higher_at_same_distance(self):
        cluster = build_cluster()
        scores = cluster.content_scores()
        assert scores["overview"] > scores["details"]

    def test_prefetch_order_excludes_origin(self):
        cluster = build_cluster()
        order = cluster.prefetch_order()
        assert "index" not in order
        assert order[0] == "overview"

    def test_origin_override(self):
        cluster = build_cluster()
        order = cluster.prefetch_order(origin="details")
        assert order == ["appendix"]


class TestPrefetchIntegration:
    def test_candidates_ranked_and_fetchable(self):
        cluster = build_cluster()
        sender = DocumentSender(Packetizer(packet_size=64, redundancy_ratio=1.5))
        candidates = cluster.prefetch_candidates(sender)
        assert [c.prepared.document_id for c in candidates][:1] == ["overview"]
        scores = [c.score for c in candidates]
        assert scores == sorted(scores, reverse=True)

        cache = PacketCache()
        channel = WirelessChannel(alpha=0.1, rng=random.Random(0))
        report = Prefetcher(cache).run_idle_window(candidates, channel, 120.0)
        assert "overview" in report.fetched

    def test_prefetched_page_browses_free(self):
        from repro.transport.session import transfer_document

        cluster = build_cluster()
        sender = DocumentSender(Packetizer(packet_size=64, redundancy_ratio=1.5))
        candidates = cluster.prefetch_candidates(sender)
        cache = PacketCache()
        channel = WirelessChannel(alpha=0.0, rng=random.Random(1))
        Prefetcher(cache).run_idle_window(candidates, channel, 300.0)

        overview = next(c.prepared for c in candidates if c.prepared.document_id == "overview")
        result = transfer_document(overview, channel, cache=cache)
        assert result.success
        assert result.frames_sent == 0
