"""Tests for the prototype's search servant + end-to-end search→browse."""

import random

import pytest

from repro.prep import PrepRequest
from repro.prototype import (
    DatabaseGateway,
    DocumentTransmitterService,
    MobileBrowser,
    ObjectRequestBroker,
    SearchService,
)
from repro.transport import PacketCache, WirelessChannel

CORPUS = {
    "browsing": (
        "<paper><title>Mobile Browsing</title><section><title>Main</title>"
        "<paragraph>Mobile web browsing over weak wireless channels benefits "
        "from content ordering and fault tolerant packet coding.</paragraph>"
        "</section></paper>"
    ),
    "caching": (
        "<paper><title>Cache Design</title><section><title>Main</title>"
        "<paragraph>Cache management for mobile databases keeps hot items "
        "in client storage for disconnected operation.</paragraph>"
        "</section></paper>"
    ),
    "energy": (
        "<paper><title>Energy</title><section><title>Main</title>"
        "<paragraph>Battery energy budgets constrain portable computing "
        "through disk spin down policies.</paragraph></section></paper>"
    ),
}


def build_stack(alpha=0.0, seed=0):
    gateway = DatabaseGateway()
    service = SearchService(gateway)
    for doc_id, source in CORPUS.items():
        gateway.put(doc_id, source)
        service.index(doc_id)
    broker = ObjectRequestBroker()
    broker.register("transmitter", DocumentTransmitterService(gateway))
    broker.register("search", service)
    channel = WirelessChannel(alpha=alpha, rng=random.Random(seed))
    browser = MobileBrowser(broker, channel, cache=PacketCache())
    return browser, service


class TestSearchService:
    def test_corpus_size(self):
        _browser, service = build_stack()
        assert service.corpus_size == 3

    def test_ranked_results_with_snippets(self):
        _browser, service = build_stack()
        results = service.search("mobile web browsing")
        assert results[0].document_id == "browsing"
        assert results[0].snippet
        assert results[0].size_bytes > 0
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_snippet_biased_to_query(self):
        _browser, service = build_stack()
        (top, *_rest) = service.search("cache management")
        assert "cache" in top.snippet.lower()

    def test_boolean_search(self):
        _browser, service = build_stack()
        results = service.search_boolean("mobile AND NOT database")
        assert [r.document_id for r in results] == ["browsing"]

    def test_no_results(self):
        _browser, service = build_stack()
        assert service.search("nonexistent gibberish") == []

    def test_index_all(self):
        gateway = DatabaseGateway()
        for doc_id, source in CORPUS.items():
            gateway.put(doc_id, source)
        service = SearchService(gateway)
        service.index_all(CORPUS)
        assert service.corpus_size == 3


class TestSearchThenBrowse:
    def test_full_loop_through_broker(self):
        browser, _service = build_stack(alpha=0.1, seed=3)
        results = browser.search("mobile web browsing")
        assert results
        top = results[0]
        outcome = browser.browse(
            top.document_id,
            request=PrepRequest(query="mobile web browsing", gamma=2.0),
        )
        assert outcome.success
        assert "browsing" in outcome.document_text.lower()

    def test_search_via_broker_counts_invocations(self):
        browser, _service = build_stack()
        before = browser.broker.invocations
        browser.search("energy")
        assert browser.broker.invocations == before + 1
