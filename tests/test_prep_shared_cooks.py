"""Query cooks against a cook built by hand, and shared static cooks.

:meth:`PreparationService.prepare` must hand out, field for field, the
document that ``serve_measure`` → ``CompactSC.schedule`` →
``DocumentSender.prepare`` builds for the same request, whatever the
query holds: document keywords, stop words or words no document has.
An MQIC request whose coefficients are the static weights byte for
byte (no query keyword is in the document) is served the static cook:
the same arena, profile and segments under its own measure name,
counted in ``stats["shared_cooks"]`` and never persisted twice.  A
measure that reads no query (``ic``, ``proportional``) is cooked once
whatever query its requests carry.
"""

import random
import string
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.coding.packets import Packetizer
from repro.core.information import serve_measure
from repro.core.pipeline import SCPipeline
from repro.core.query import Query
from repro.data import draft_paper_path
from repro.net.stats_http import render_exposition
from repro.prep import PrepRequest, PreparationService
from repro.prep.prepare import DocumentSender
from repro.prep.service import _cooked_size
from repro.simulation.textgen import CorpusGenerator
from repro.text.keywords import KeywordExtractor
from repro.xmlkit.parser import parse_xml

PIPELINE = SCPipeline()
SOURCE = Path(draft_paper_path()).read_text(encoding="utf-8")
COMPACT = PIPELINE.run(parse_xml(SOURCE)).compact()
DOCUMENT = "paper"
SERVICE = PreparationService(pipeline=PIPELINE)
SERVICE.add_document(DOCUMENT, SOURCE)

words = st.one_of(
    st.sampled_from(COMPACT.table.keywords),
    st.sampled_from(["the", "of", "and", "with"]),
    st.text(string.ascii_lowercase, min_size=1, max_size=9),
)
queries = st.lists(words, max_size=4).map(" ".join)


def direct_cook(request):
    """(measure, prepared) built without the service, or ValueError."""
    query = None
    if request.query.strip():
        extractor = KeywordExtractor(lemmatizer=PIPELINE.shared_lemmatizer.reader())
        query = Query(request.query, extractor=extractor)
    name = request.resolved_measure
    if name == "mqic" and (query is None or query.is_empty) and request.measure == "auto":
        name = "ic"
    measure = serve_measure(COMPACT.table, name, query)
    packetizer = Packetizer(
        packet_size=request.packet_size,
        redundancy_ratio=request.gamma,
        systematic=request.systematic,
    )
    schedule = COMPACT.schedule(request.lod_level, measure)
    return measure, DocumentSender(packetizer).prepare(DOCUMENT, schedule)


def fields(prepared):
    return (
        prepared.document_id,
        prepared.measure,
        prepared.m,
        prepared.n,
        bytes(prepared.cooked.arena),
        prepared.content_profile.tobytes(),
        prepared.profile_wire,
        list(prepared.segments),
    )


@settings(max_examples=60, deadline=None)
@given(
    query=queries,
    measure=st.sampled_from(["auto", "mqic"]),
    packet_size=st.sampled_from([64, 256]),
)
def test_prepare_equals_a_direct_cook(query, measure, packet_size):
    request = PrepRequest(query=query, measure=measure, packet_size=packet_size)
    try:
        ranking, expected = direct_cook(request)
    except ValueError:
        with pytest.raises(ValueError):
            SERVICE.prepare(DOCUMENT, request)
        return
    prepared = SERVICE.prepare(DOCUMENT, request)
    assert fields(prepared) == fields(expected)
    static = SERVICE.prepare(DOCUMENT, PrepRequest(measure="ic", packet_size=packet_size))
    matches = bytes(ranking.coefficients) == bytes(COMPACT.table.weights)
    assert (prepared.cooked is static.cooked) == matches


CORPUS_PIPELINE = SCPipeline()
CORPUS = [
    (name, xml, CORPUS_PIPELINE.run(parse_xml(xml)).compact())
    for name, (xml, _topic) in CorpusGenerator(seed=1).corpus(12).items()
]
CORPUS_WORDS = sorted({word for _n, _x, sc in CORPUS for word in sc.table.keywords})
corpus_queries = st.lists(
    st.one_of(
        st.sampled_from(CORPUS_WORDS),
        st.text(string.ascii_lowercase, min_size=2, max_size=9),
    ),
    min_size=1,
    max_size=4,
).map(" ".join)


@settings(max_examples=150, deadline=None)
@given(document=st.integers(0, len(CORPUS) - 1), query=corpus_queries)
def test_sharing_by_ids_agrees_with_the_coefficient_bytes(document, query):
    """A shared cook is decided on vocabulary ids; the rule it replaces
    compared the MQIC coefficients with the static weights as bytes."""
    table = CORPUS[document][2].table
    extractor = KeywordExtractor(lemmatizer=CORPUS_PIPELINE.shared_lemmatizer.reader())
    parsed = Query(query, extractor=extractor)
    assume(not parsed.is_empty)
    coefficients = serve_measure(table, "mqic", parsed).coefficients
    by_bytes = bytes(coefficients) == bytes(table.weights)
    by_ids = not table.holds_any(table.vocabulary.known(parsed.keywords()))
    assert by_ids == by_bytes


def test_off_vocabulary_queries_leave_the_vocabulary_alone():
    pipeline = SCPipeline()
    service = PreparationService(pipeline=pipeline)
    for name, xml, _sc in CORPUS:
        service.add_document(name, xml)
    service.warmup()
    vocabulary = pipeline.shared_vocabulary
    held = len(vocabulary)
    rng = random.Random(7)
    names = [name for name, _xml, _sc in CORPUS]
    for _ in range(500):
        words = ["".join(rng.choices("qxzjv", k=rng.randint(4, 9))) for _ in range(3)]
        request = PrepRequest(query=" ".join(words), measure="mqic")
        prepared = service.prepare(rng.choice(names), request)
        assert prepared.measure == "mqic"
    assert len(vocabulary) == held
    assert service.stats["shared_cooks"] == 500


OFF_VOCABULARY = PrepRequest(query="quokka zeppelin")


def paper_service(**kwargs):
    service = PreparationService(pipeline=PIPELINE, **kwargs)
    service.add_document(DOCUMENT, SOURCE)
    return service


def test_explicit_mqic_refuses_a_stop_word_query_that_auto_cooked():
    """``auto`` and ``mqic`` share a key; the outcome must not depend on order."""
    service = paper_service()
    service.prepare(DOCUMENT, PrepRequest(query="the of and"))
    with pytest.raises(ValueError, match="needs a query with keywords"):
        service.prepare(DOCUMENT, PrepRequest(measure="mqic", query="the of and"))


@pytest.mark.parametrize("measure", ["ic", "proportional"])
def test_a_measure_that_reads_no_query_cooks_once_for_every_query(measure):
    service = paper_service()
    cooks = [
        service.prepare(DOCUMENT, PrepRequest(measure=measure, query=query))
        for query in ("", "mobile", "caching packets", "quokka")
    ]
    assert service.stats["cooked_misses"] == 1
    assert service.cache_info()["cooked"]["entries"] == 1
    assert all(prepared is cooks[0] for prepared in cooks)


class TestSharedCook:
    def test_off_vocabulary_query_aliases_the_static_cook(self):
        service = paper_service()
        prepared = service.prepare(DOCUMENT, OFF_VOCABULARY)
        static = service.prepare(DOCUMENT)
        assert prepared is not static
        assert prepared.cooked is static.cooked
        assert prepared.content_profile is static.content_profile
        assert prepared.segments is static.segments
        assert (prepared.measure, static.measure) == ("mqic", "ic")
        assert service.stats["shared_cooks"] == 1
        assert service.stats["cooked_misses"] == 2
        # The alias is the query key's own entry: a hit from now on.
        assert service.prepare(DOCUMENT, OFF_VOCABULARY) is prepared
        assert service.stats["shared_cooks"] == 1

    def test_stop_word_query_keeps_the_static_measure_name(self):
        service = paper_service()
        stop_words = service.prepare(DOCUMENT, PrepRequest(query="the of and"))
        static = service.prepare(DOCUMENT)
        assert stop_words is static
        assert service.stats["shared_cooks"] == 1

    def test_query_with_a_document_keyword_cooks_its_own(self):
        service = paper_service()
        prepared = service.prepare(DOCUMENT, PrepRequest(query="quokka caching"))
        assert prepared.cooked is not service.prepare(DOCUMENT).cooked
        assert service.stats["shared_cooks"] == 0

    def test_alias_is_charged_in_full(self):
        service = paper_service()
        static = service.prepare(DOCUMENT)
        service.prepare(DOCUMENT, OFF_VOCABULARY)
        assert service.cache_info()["cooked"]["bytes"] == 2 * _cooked_size(static)

    def test_prometheus_counts_shared_hits(self):
        obs.enable()
        try:
            service = paper_service()
            service.prepare(DOCUMENT, OFF_VOCABULARY)
            body = render_exposition({"prep": service.stats})
            assert "\nrepro_prep_shared_cooks 1\n" in body
            assert "\nrepro_prep_cooked_misses 2\n" in body
            assert obs.OBS.metrics.get("prep.hits") is None
        finally:
            obs.disable(reset=True)

    def test_no_second_bundle_on_disk(self, tmp_path):
        service = paper_service(disk_path=tmp_path)
        service.prepare(DOCUMENT, OFF_VOCABULARY)
        assert service.disk_store.info()["bundles"] == 1
        assert service.disk_store.info()["aliases"] == 1
        assert service.stats["disk_writes"] == 1
        # A fresh process finds the query key's alias record and loads
        # the static bundle: it neither builds the SC nor encodes.
        restarted = paper_service(disk_path=tmp_path)
        prepared = restarted.prepare(DOCUMENT, OFF_VOCABULARY)
        assert prepared.measure == "mqic"
        assert restarted.stats["disk_hits"] == 2
        assert restarted.stats["disk_misses"] == 0
        assert restarted.stats["sc_misses"] == 0
        assert restarted.stats["disk_writes"] == 0
        assert restarted.stats["shared_cooks"] == 1
        assert restarted.disk_store.info()["bundles"] == 1
        cooked = service.prepare(DOCUMENT, OFF_VOCABULARY)
        assert bytes(prepared.cooked.arena) == bytes(cooked.cooked.arena)
        assert prepared.profile_wire == cooked.profile_wire
