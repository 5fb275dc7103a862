"""Tests for the search engine and query-time QIC annotation."""

import os
import random
import string
import subprocess
import sys
from pathlib import Path

from repro.core.query import Query
from repro.search.engine import SearchEngine
from repro.text.keywords import KeywordExtractor
from repro.text.lemmatizer import Lemmatizer
from repro.xmlkit.parser import parse_xml


def make_doc(title, body):
    return parse_xml(
        f"<paper><title>{title}</title><section><title>Main</title>"
        f"<paragraph>{body}</paragraph></section></paper>"
    )


def build_engine():
    engine = SearchEngine()
    engine.add_document(
        "browsing",
        make_doc(
            "Mobile Browsing",
            "mobile web browsing over wireless channels with caching support",
        ),
    )
    engine.add_document(
        "databases",
        make_doc(
            "Database Caching",
            "database caching strategies for disconnected operation and storage",
        ),
    )
    engine.add_document(
        "energy",
        make_doc("Energy", "battery energy and disk spin-down policies"),
    )
    return engine


class TestCorpus:
    def test_size(self):
        assert build_engine().size == 3

    def test_remove(self):
        engine = build_engine()
        engine.remove_document("energy")
        assert engine.size == 2
        assert engine.search("battery") == []

    def test_sc_accessible(self):
        engine = build_engine()
        assert engine.sc("browsing") is not None
        assert engine.sc("ghost") is None


class TestSearch:
    def test_relevant_document_ranks_first(self):
        hits = build_engine().search("mobile web browsing")
        assert hits[0].document_id == "browsing"

    def test_query_matching_two_documents(self):
        hits = build_engine().search("caching")
        ids = [h.document_id for h in hits]
        assert set(ids) == {"browsing", "databases"}

    def test_no_match(self):
        assert build_engine().search("quantum chromodynamics") == []

    def test_empty_query(self):
        assert build_engine().search("the of and") == []

    def test_limit(self):
        hits = build_engine().search("caching", limit=1)
        assert len(hits) == 1

    def test_scores_descending(self):
        hits = build_engine().search("caching storage database")
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)


class TestQicAnnotation:
    def test_hits_carry_query_measures(self):
        hits = build_engine().search("mobile caching")
        for hit in hits:
            for unit in hit.sc.root.walk():
                assert "qic" in unit.content
                assert "mqic" in unit.content
                assert "tfidf" in unit.content

    def test_qic_reflects_query(self):
        engine = build_engine()
        (hit,) = [h for h in engine.search("caching") if h.document_id == "databases"]
        root_value = hit.sc.root.content["qic"]
        assert root_value > 0.99  # whole document normalizes to 1

    def test_parse_query_shares_lemmatizer(self):
        engine = build_engine()
        query = engine.parse_query("browsing browsers")
        assert len(query.keywords()) == 2


class TestQueryWordsLeaveTheMemo:
    """Client query words read the corpus lemmatizer's memo, never grow it."""

    @staticmethod
    def random_words(rng, count):
        return [
            "".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 12)))
            for _ in range(count)
        ]

    def test_random_searches_leave_the_memo_alone(self):
        engine = build_engine()
        memo = engine._pipeline.shared_lemmatizer._cache
        entries = len(memo)
        rng = random.Random(7)
        for _ in range(10):
            words = self.random_words(rng, 1000)
            engine.search(" ".join(words))
            engine.search_boolean(" OR ".join(words[:50]))
            assert len(memo) == entries

    def test_query_keywords_match_a_memoizing_lemmatizer(self):
        engine = build_engine()
        rng = random.Random(8)
        words = self.random_words(rng, 200) + ["browsing", "browsers", "caching", "cached"]
        text = " ".join(words)
        fresh = Query(text, extractor=KeywordExtractor(lemmatizer=Lemmatizer()))
        query = engine.parse_query(text)
        assert {term: query.count(term) for term in query.keywords()} == {
            term: fresh.count(term) for term in fresh.keywords()
        }
        assert engine._score(query) == engine._score(fresh) != {}


#: Prints ``repr`` of every score of the seed-1 corpus topic queries.
SCORES_SCRIPT = """
from repro.search.engine import SearchEngine
from repro.simulation.textgen import CorpusGenerator
from repro.xmlkit.parser import parse_xml
generator = CorpusGenerator(seed=1)
engine = SearchEngine()
for name, (xml, _topic) in generator.corpus(40).items():
    engine.add_document(name, parse_xml(xml))
for topic in range(len(generator.topics)):
    query = generator.topic_query(topic)
    for hit in engine.search(query, limit=40):
        print(query, hit.document_id, repr(hit.score))
"""


class TestScoresFollowNoHashSeed:
    @staticmethod
    def scores(hash_seed):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(src))
        result = subprocess.run(
            [sys.executable, "-c", SCORES_SCRIPT],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_two_hash_seeds_give_every_score_bit_for_bit(self):
        first = self.scores(0)
        assert first.count("\n") > 8
        assert self.scores(1) == first
