"""The prototype keeps each document once: in its preparation service.

``DatabaseGateway`` is a thin front over one ``PreparationService``,
whose compact SC tier is the only store of a document's structure: the
transmitter prepares through it, and the search engine indexes the very
``CompactSC`` objects the tier holds.  These tests check that, and what
the whole prototype stack retains per document.
"""

import gc
import tracemalloc

import pytest

from repro.core.pipeline import SCPipeline
from repro.prep import PreparationService
from repro.prototype import (
    DatabaseGateway,
    DocumentTransmitterService,
    FetchRequest,
    SearchService,
)
from repro.xmlkit.errors import XmlSyntaxError

from tests.test_prep_sc_memory import cached_compact
from tests.test_search_store import plain_queries, seeded_corpus


class TestOneDocumentStore:
    def test_the_engine_indexes_the_service_tier_object(self):
        documents, generator = seeded_corpus(count=8)
        gateway = DatabaseGateway()
        service = SearchService(gateway)
        for name, xml in documents.items():
            gateway.put(name, xml)
            service.index(name)
        assert service.search(generator.topic_query(0))
        for name in documents:
            assert service._engine._compacts[name] is cached_compact(gateway.service, name)

    def test_transmitters_share_the_gateway_service(self):
        gateway = DatabaseGateway()
        assert DocumentTransmitterService(gateway).service is gateway.service

    @pytest.mark.parametrize(
        "source, error",
        [("<paper><title>unclosed</paper>", XmlSyntaxError), ("<foo/>", ValueError)],
    )
    def test_a_source_that_is_not_a_paper_is_not_kept(self, source, error):
        gateway = DatabaseGateway()
        with pytest.raises(error):
            gateway.put("broken", source)
        assert "broken" not in gateway and len(gateway) == 0


class TestPrototypeStackFootprint:
    """What the prototype stack retains per document.

    The 200 seed-1 ``CorpusGenerator`` documents (the corpus-browse
    benchmark's corpus) are stored in a ``DatabaseGateway`` and indexed
    by a ``SearchService``; then each of the 8 topic queries is searched
    (5 hits) and every hit fetched through a
    ``DocumentTransmitterService``.  The lemmatizer is warmed by an
    earlier pass, and the sources are allocated before tracing starts.
    With the gateway and the engine each keeping SC objects (an
    ``OccurrenceVector`` per indexed document, and every hit's annotated
    tree), the stack retained 20 648 B per document after ingest and
    42 558 B after the searches and fetches (Python 3.11.7).  With the
    service's compact tier the only store, 14 259 B and 17 503 B.  The
    ceilings keep ~1/3 headroom over those.
    """

    DOCUMENTS = 200
    INGEST_CEILING_BYTES = 19 * 1024
    SEARCHED_CEILING_BYTES = 24 * 1024

    def test_gateway_search_and_fetch(self):
        documents, generator = seeded_corpus(count=self.DOCUMENTS)
        pipeline = SCPipeline()
        warm = PreparationService(pipeline=pipeline)
        for name, xml in documents.items():
            warm.add_document(name, xml)
        warm.warmup()
        del warm
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            gateway = DatabaseGateway(pipeline=pipeline)
            search = SearchService(gateway)
            transmitter = DocumentTransmitterService(gateway)
            for name, xml in documents.items():
                gateway.put(name, xml)
                search.index(name)
            gc.collect()
            ingest = tracemalloc.get_traced_memory()[0] - before
            fetched = 0
            for query in plain_queries(generator):
                for result in search.search(query, limit=5):
                    transmitter.fetch(FetchRequest(result.document_id, query_text=query))
                    fetched += 1
            gc.collect()
            searched = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert fetched == 5 * len(generator.topics)
        assert ingest / self.DOCUMENTS <= self.INGEST_CEILING_BYTES, ingest / self.DOCUMENTS
        assert searched / self.DOCUMENTS <= self.SEARCHED_CEILING_BYTES, (
            searched / self.DOCUMENTS
        )
