"""What the SC tier keeps between cooks, and what a cook may depend on.

The SC tier caches one frozen ``CompactSC`` per document: the units in
preorder, their payload, own keyword counts and subtree aggregates, and
the keyword table.  A cook reads it and writes nothing back; the
measure's values and the ranking last one cook.  These tests pin that
the tier holds the same object with the same bytes after every kind of
cook, a failed one included, that a cook's output does not depend on
which cooks ran before it, that each request a cook cannot satisfy
fails the same way on a fresh and on a used service, and that the SC
and cooked tiers' byte weights track the memory an entry really
retains.
"""

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core.pipeline import SCPipeline
from repro.data import draft_paper_path
from repro.prep import PrepRequest, PreparationService
from repro.prep.cache import MISS
from repro.simulation.textgen import CorpusGenerator
from repro.xmlkit.parser import parse_xml


def corpus(count=6, seed=1):
    """[(document id, xml, topic query)] of seeded corpus documents."""
    generator = CorpusGenerator(seed=seed)
    return [
        (name, xml, generator.topic_query(topic))
        for name, (xml, topic) in generator.corpus(count).items()
    ]


def fingerprint(prepared):
    """Every output of a cook, as one comparable value."""
    return (
        hashlib.sha256(b"".join(prepared.wire_frames())).hexdigest(),
        tuple(prepared.segments),
        tuple(share.hex() for share in prepared.content_profile),
    )


def cached_compact(service, document):
    """The CompactSC the SC tier holds for *document*, read without a hit."""
    compact = service._sc_tier.peek((service.digest(document), service._pipeline_token()))
    assert compact is not MISS
    return compact


def compact_digest(compact):
    """sha256 over every buffer and string of a CompactSC."""
    digest = hashlib.sha256()
    table = compact.table
    for field in (
        compact.lods,
        compact.virtual,
        compact.payload,
        compact.ends,
        compact.offsets,
        compact.own,
        compact.own_starts,
        compact.aggregate,
        compact.aggregate_starts,
        table.counts,
        table.weights,
        "\x00".join(compact.labels + compact.titles + table.keywords).encode(),
    ):
        digest.update(bytes(field))
    return digest.hexdigest()


def assert_untouched(service, document, cook):
    """Run *cook* and check the SC tier still holds the same, unchanged SC."""
    before = cached_compact(service, document)
    digest = compact_digest(before)
    cook()
    after = cached_compact(service, document)
    assert after is before
    assert compact_digest(after) == digest


def warm_service():
    """A service whose SC tier holds the paper, and whose cooked tier
    holds none of the requests below (each of them cooks)."""
    service = PreparationService()
    document = service.add_path(draft_paper_path())
    service.prepare(document, PrepRequest(packet_size=128))
    return service, document


class TestCacheHygiene:
    @pytest.mark.parametrize(
        "request_kwargs",
        [{}, {"query": "mobile caching"}, {"lod": "section", "measure": "proportional"}],
    )
    def test_cached_sc_holds_no_annotation_after_prepare(self, request_kwargs):
        """The tier's compact SC is the same object, with the same bytes."""
        service, document = warm_service()
        assert_untouched(
            service, document, lambda: service.prepare(document, PrepRequest(**request_kwargs))
        )

    def test_failed_cook_releases_too(self):
        service, document = warm_service()

        def failing_cook():
            with pytest.raises(ValueError):
                service.prepare(document, PrepRequest(measure="qic"))

        assert_untouched(service, document, failing_cook)


class TestOrderIndependence:
    def requests(self, documents):
        plan = []
        for name, _xml, query in documents:
            plan.append((name, PrepRequest()))
            plan.append((name, PrepRequest(query=query)))
            plan.append((name, PrepRequest(query=query, measure="qic", lod="section")))
            plan.append((name, PrepRequest(measure="ic", lod="document")))
        return plan

    def cook_all(self, documents, plan):
        service = PreparationService()
        for name, xml, _query in documents:
            service.add_document(name, xml)
        return {
            (name, request): fingerprint(service.prepare(name, request))
            for name, request in plan
        }

    def test_two_orders_cook_identical_bytes(self):
        documents = corpus()
        plan = self.requests(documents)
        shuffled = list(plan)
        random.Random(5).shuffle(shuffled)
        forward = self.cook_all(documents, plan)
        assert self.cook_all(documents, shuffled) == forward
        assert self.cook_all(documents, list(reversed(plan))) == forward

    def test_concurrent_cooks_match_sequential(self):
        documents = corpus(count=2)
        plan = self.requests(documents)
        expected = self.cook_all(documents, plan)
        service = PreparationService()
        for name, xml, _query in documents:
            service.add_document(name, xml)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=16) as pool:
                futures = [
                    (key, pool.submit(service.prepare, *key)) for key in plan * 2
                ]
                got = [
                    (key, fingerprint(future.result(timeout=60)))
                    for key, future in futures
                ]
        finally:
            sys.setswitchinterval(interval)
        assert got == [(key, expected[key]) for key, _future in futures]
        for name, xml, _query in documents:
            fresh = SCPipeline().run(parse_xml(xml)).compact()
            assert compact_digest(cached_compact(service, name)) == compact_digest(fresh)


def outcome(service, document, request_kwargs):
    """("ok", fingerprint) or ("error", exception type) for one cook."""
    try:
        request = PrepRequest(**request_kwargs)
        return ("ok", fingerprint(service.prepare(document, request)))
    except ValueError:
        return ("error", ValueError)


class TestMeasureOutcomes:
    """A cook's outcome never depends on the service's history.

    ``qic``/``mqic`` need a query with keywords, at every LOD, and the
    cook raises ``ValueError`` without one; ``auto`` then ranks by
    ``ic``.  ``tfidf`` needs corpus statistics no request carries, so
    ``PrepRequest`` rejects it.
    """

    CASES = [
        ({"measure": "qic"}, "error"),
        ({"measure": "qic", "lod": "document"}, "error"),
        ({"measure": "mqic", "query": "the of and"}, "error"),
        ({"measure": "qic", "query": "the of and", "lod": "section"}, "error"),
        ({"measure": "tfidf"}, "error"),
        ({"measure": "tfidf", "query": "mobile caching"}, "error"),
        ({"query": "the of and"}, "ok"),
        ({"measure": "qic", "query": "mobile caching"}, "ok"),
    ]

    @pytest.mark.parametrize("request_kwargs, expected", CASES)
    def test_same_outcome_fresh_and_after_a_query_cook(self, request_kwargs, expected):
        fresh = PreparationService()
        document = fresh.add_path(draft_paper_path())
        first = outcome(fresh, document, request_kwargs)

        used = PreparationService()
        used.add_path(draft_paper_path())
        used.prepare(document, PrepRequest(query="weakly connected caching"))
        entries = used.cache_info()["cooked"]["entries"]
        second = outcome(used, document, request_kwargs)

        assert first[0] == expected
        assert second == first
        if expected == "error":
            assert used.cache_info()["cooked"]["entries"] == entries

    def test_stop_word_query_ranks_by_ic(self):
        service = PreparationService()
        document = service.add_path(draft_paper_path())
        stop_words = service.prepare(document, PrepRequest(query="the of and"))
        static = service.prepare(document, PrepRequest(measure="ic"))
        assert fingerprint(stop_words) == fingerprint(static)

    def test_tfidf_rejected_on_the_wire(self):
        with pytest.raises(ValueError, match="unknown measure"):
            PrepRequest.from_wire({"measure": "tfidf"})


#: Runs in a fresh interpreter: reads ``[[source, query], ...]`` from
#: stdin and prints ``[[retained, weight], ...]``, one SC pipeline for all.
_CACHED_ALONE = """
import json, sys
from repro.core.pipeline import SCPipeline
from tests.test_prep_sc_memory import TestScWeight
pipeline = SCPipeline()
print(json.dumps([
    TestScWeight.retained_and_weight(pipeline, source, query)
    for source, query in json.load(sys.stdin)
]))
"""


class TestScWeight:
    """The SC tier's weight is within 25% of the bytes an entry retains.

    Each document is measured cached alone, as ``_sc_size`` defines its
    weight: in a fresh interpreter, where no string an earlier test
    holds (the bundled paper's titles, say) is shared with the entry.
    """

    TOLERANCE = 0.25

    @staticmethod
    def cached_alone(documents):
        """[(retained, weight)] per ``(source, query)``, measured in a
        fresh interpreter with this one's import path."""
        done = subprocess.run(
            [sys.executable, "-c", _CACHED_ALONE],
            input=json.dumps(documents),
            capture_output=True,
            text=True,
            timeout=300,
            cwd=Path(__file__).resolve().parent.parent,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path))},
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    @staticmethod
    def retained_and_weight(pipeline, source, query):
        """(traced bytes, tier weight) of one document's SC after a cook."""
        warm = PreparationService(pipeline=pipeline)
        warm.add_document("doc", source)
        warm.prepare("doc", PrepRequest(query=query))  # warm the shared lemmatizer
        del warm
        # A zero cooked budget keeps no cooked entry: what stays is the SC.
        service = PreparationService(pipeline=pipeline, cooked_budget_bytes=0)
        service.add_document("doc", source)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            service.prepare("doc", PrepRequest(query=query))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert service.cache_info()["cooked"]["entries"] == 0
        return retained, service.cache_info()["sc"]["bytes"]

    def test_bundled_paper(self):
        source = Path(draft_paper_path()).read_text(encoding="utf-8")
        [(retained, weight)] = self.cached_alone([(source, "mobile caching")])
        assert abs(weight - retained) <= self.TOLERANCE * retained, (weight, retained)

    def test_seeded_corpus_documents(self):
        documents = corpus(count=20, seed=3)
        measured = self.cached_alone([(xml, query) for _name, xml, query in documents])
        for (name, _xml, _query), (retained, weight) in zip(documents, measured):
            assert abs(weight - retained) <= self.TOLERANCE * retained, (
                name,
                weight,
                retained,
            )


class TestScTierFootprint:
    """What the SC tier retains per document over a 200-document corpus.

    The 200 seed-1 ``CorpusGenerator`` documents (the corpus-browse
    benchmark's corpus) are cooked once each, with a zero cooked budget
    and a lemmatizer warmed by an earlier pass, so the traced bytes
    left are the SC tier's entries.  With the unit text stored plain,
    subtree aggregates and keyword weights stored, and one label and
    title string per unit, it retained 20 443 B per document (Python
    3.11.7).  With the text zlib-compressed, aggregates and weights
    derived and labels and titles interned, 7 855 B; the ceiling is
    8 KiB.
    """

    CEILING_BYTES = 8 * 1024

    def test_corpus_browse_documents(self):
        generator = CorpusGenerator(seed=1)
        documents = [(name, xml) for name, (xml, _topic) in generator.corpus(200).items()]
        pipeline = SCPipeline()
        warm = PreparationService(pipeline=pipeline)
        for name, xml in documents:
            warm.add_document(name, xml)
        warm.warmup()
        del warm
        service = PreparationService(pipeline=pipeline, cooked_budget_bytes=0)
        for name, xml in documents:
            service.add_document(name, xml)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert service.warmup() == len(documents)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert service.cache_info()["sc"]["entries"] == len(documents)
        assert service.cache_info()["cooked"]["entries"] == 0
        assert retained / len(documents) <= self.CEILING_BYTES, retained / len(documents)


class TestSharedCorpusFacts:
    """The SC tier holds each corpus-wide fact once.

    Over the same 200 documents as :class:`TestScTierFootprint`, every
    keyword table holds ids into the pipeline's one vocabulary, and
    equal labels, titles and structure buffers are one object.  The
    tier retained 7 855 B per document with a keyword tuple and a
    structure record of its own per document (Python 3.11.7), and
    5 716 B with them shared; the ceiling is 6 KiB.
    """

    CEILING_BYTES = 6 * 1024

    def test_corpus_browse_documents(self):
        documents = [
            (name, xml) for name, (xml, _topic) in CorpusGenerator(seed=1).corpus(200).items()
        ]
        pipeline = SCPipeline()
        warm = PreparationService(pipeline=pipeline)
        for name, xml in documents:
            warm.add_document(name, xml)
        warm.warmup()
        del warm
        service = PreparationService(pipeline=pipeline, cooked_budget_bytes=0)
        for name, xml in documents:
            service.add_document(name, xml)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert service.warmup() == len(documents)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        compacts = [cached_compact(service, name) for name, _xml in documents]
        assert {id(sc.table.vocabulary) for sc in compacts} == {id(pipeline.shared_vocabulary)}
        assert len({id(sc.labels) for sc in compacts}) == len({sc.labels for sc in compacts})
        assert len({id(sc.titles) for sc in compacts}) == len({sc.titles for sc in compacts})
        assert retained / len(documents) <= self.CEILING_BYTES, retained / len(documents)


class TestCookedWeight:
    """The cooked tier's weight is within 25% of the bytes an entry retains."""

    TOLERANCE = 0.25

    @staticmethod
    def retained_and_weight(pipeline, source, query):
        """(traced bytes, tier weight) of one document's cooked entry."""
        warm = PreparationService(pipeline=pipeline)
        warm.add_document("doc", source)
        warm.prepare("doc", PrepRequest(query=query))  # warm the shared memos
        del warm
        # A zero SC budget keeps no SC, so the segment labels are held
        # by the cooked entry alone.
        service = PreparationService(pipeline=pipeline, sc_budget_bytes=0)
        service.add_document("doc", source)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            service.prepare("doc", PrepRequest(query=query))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert service.cache_info()["sc"]["entries"] == 0
        return retained, service.cache_info()["cooked"]["bytes"]

    def test_bundled_paper(self):
        source = Path(draft_paper_path()).read_text(encoding="utf-8")
        retained, weight = self.retained_and_weight(SCPipeline(), source, "mobile caching")
        assert abs(weight - retained) <= self.TOLERANCE * retained, (weight, retained)

    def test_seeded_corpus_documents(self):
        pipeline = SCPipeline()
        for name, xml, query in corpus(count=20, seed=3):
            retained, weight = self.retained_and_weight(pipeline, xml, query)
            assert abs(weight - retained) <= self.TOLERANCE * retained, (
                name,
                weight,
                retained,
            )
