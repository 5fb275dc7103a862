"""The compact SC cooks exactly what the SC tree schedules.

The preparation service caches each document's SC as a frozen
:class:`~repro.core.compact.CompactSC` and cooks from it without
building unit objects.  The tree path (``annotate_sc`` then
``TransmissionSchedule``) stays the reference: for every serve measure,
every LOD, with and without a topic query, both paths must give the
same segments, bit for bit, and the same payload bytes.  Callers that
hand the service a tree, or take one from it, keep their own copy.
The pipeline emits the compact form itself: the service's SC build
makes no unit tree and leaves no reference cycle behind.
"""

import gc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.coding import _native
from repro.coding.backend import get_backend
from repro.core.compact import CompactSC
from repro.core.information import annotate_sc, serve_measure
from repro.core.lod import ALL_LODS
from repro.core.multires import TransmissionSchedule
from repro.core.pipeline import SCPipeline
from repro.core.query import Query
from repro.core.structure import OrganizationalUnit, StructuralCharacteristic
from repro.data import draft_paper_path
from repro.prep import PrepRequest, PreparationService
from repro.simulation.textgen import CorpusGenerator
from repro.text.keywords import KeywordExtractor
from repro.xmlkit.parser import parse_xml

PIPELINE = SCPipeline()
PAPER = Path(draft_paper_path()).read_text(encoding="utf-8")


def corpus(count, seed):
    """[(xml, topic query)] of seeded corpus documents."""
    generator = CorpusGenerator(seed=seed)
    return [
        (xml, generator.topic_query(topic))
        for xml, topic in generator.corpus(count).values()
    ]


def parse_query(text):
    if text is None:
        return None
    return Query(text, extractor=KeywordExtractor(lemmatizer=PIPELINE.shared_lemmatizer))


def shape(segments, payload):
    return [(s.label, s.size, s.content.hex()) for s in segments], payload


def tree_path(xml, query, lod, measure):
    sc = PIPELINE.run(parse_xml(xml))
    annotate_sc(sc, query=query)
    schedule = TransmissionSchedule(sc, lod=lod, measure=measure)
    return shape(schedule.segments(), schedule.payload())


def compact_path(compact, query, lod, measure):
    schedule = compact.schedule(lod, serve_measure(compact.table, measure, query))
    return shape(schedule.segments(), schedule.payload())


def assert_parity(xml, query_text):
    query = parse_query(query_text)
    measures = ["ic", "proportional"]
    if query is not None and not query.is_empty:
        measures += ["qic", "mqic"]
    compact = PIPELINE.run(parse_xml(xml)).compact()
    for lod in ALL_LODS:
        for measure in measures:
            assert compact_path(compact, query, lod, measure) == tree_path(
                xml, query, lod, measure
            ), (lod, measure, query_text)


class TestTreeParity:
    @pytest.mark.parametrize("query", [None, "mobile caching", "weakly connected browsing"])
    def test_bundled_paper(self, query):
        assert_parity(PAPER, query)

    @pytest.mark.parametrize("index", range(4))
    def test_seeded_corpus_documents(self, index):
        xml, topic_query = corpus(4, seed=1)[index]
        assert_parity(xml, None)
        assert_parity(xml, topic_query)

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_any_corpus_seed(self, seed):
        xml, topic_query = corpus(1, seed=seed)[0]
        assert_parity(xml, topic_query)

    def test_qic_without_keywords_is_refused(self):
        compact = PIPELINE.run(parse_xml(PAPER)).compact()
        for query in (None, parse_query("the of and")):
            for measure in ("qic", "mqic"):
                with pytest.raises(ValueError, match="needs a query"):
                    serve_measure(compact.table, measure, query)


class TestCompactForm:
    def test_round_trip_keeps_every_input(self):
        sc = PIPELINE.run(parse_xml(PAPER))
        compact = sc.compact()
        rebuilt = StructuralCharacteristic.from_compact(compact)
        assert rebuilt.compact().nbytes == compact.nbytes
        for original, copy in zip(sc.root.walk(), rebuilt.root.walk()):
            assert (copy.lod, copy.label, copy.title, copy.virtual, copy.payload) == (
                original.lod,
                original.label,
                original.title,
                original.virtual,
                original.payload,
            )
            assert list(copy.own_counts.items()) == list(original.own_counts.items())
            assert list(copy.counts().items()) == list(original.counts().items())
        assert list(rebuilt.vector.items()) == list(sc.vector.items())

    def test_aggregate_runs_follow_the_tree_dict_order(self):
        sc = PIPELINE.run(parse_xml(PAPER))
        compact = CompactSC.from_tree(sc.root, sc.vector)
        keywords = compact.table.keywords
        for position, unit in enumerate(sc.root.walk()):
            runs = [(keywords[key], count) for key, count in compact.subtree_pairs(position)]
            assert runs == list(unit.counts().items())

    def test_payload_size_needs_no_annotation(self):
        sc = PIPELINE.run(parse_xml(PAPER))
        assert sc.compact().payload_size == sc.size_bytes()


class TestServiceCopies:
    def test_sc_for_hands_out_a_private_tree(self):
        # No cooked tier: every prepare cooks again from the cached SC.
        service = PreparationService(cooked_budget_bytes=0)
        document = service.add_path(draft_paper_path())
        expected = service.prepare(document, PrepRequest(query="mobile caching"))
        first = service.sc_for(document)
        assert first is not service.sc_for(document)
        annotate_sc(first, query=parse_query("caching"))
        first.root.children[0].payload = b"edited"
        first.root.children[0].own_counts.clear()
        again = service.prepare(document, PrepRequest(query="mobile caching"))
        assert service.stats["cooked_misses"] == 2
        assert b"".join(again.wire_frames()) == b"".join(expected.wire_frames())


@pytest.fixture
def constructed_units(monkeypatch):
    """A list that gains every OrganizationalUnit constructed from now on."""
    constructed = []
    init = OrganizationalUnit.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(OrganizationalUnit, "__init__", counting_init)
    return constructed


class TestBuiltStraight:
    SOURCES = [PAPER] + [xml for xml, _query in corpus(4, seed=1)]

    def test_the_sc_build_leaves_no_cyclic_garbage(self):
        pipeline = SCPipeline()
        gc.collect()
        gc.disable()
        try:
            for source in self.SOURCES:
                pipeline.run(parse_xml(source)).compact()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_native_warmup_leaves_no_cyclic_garbage(self):
        """Parse, SC build, schedule and encode: the whole cook frees
        everything by reference counting, the native kernel's output
        buffers included."""
        if _native.load() is None or get_backend().name != "native":
            pytest.skip("the cook does not run on the native GF(2^8) kernel here")
        service = PreparationService()
        for index, source in enumerate(self.SOURCES):
            service.add_document(f"doc{index}", source)
        gc.collect()
        gc.disable()
        try:
            assert service.warmup() == len(self.SOURCES)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_compacting_a_run_builds_no_unit_tree(self, constructed_units):
        for source in self.SOURCES:
            PIPELINE.run(parse_xml(source)).compact()
        assert constructed_units == []

    def test_a_warmup_builds_no_unit_tree(self, constructed_units):
        service = PreparationService()
        for index, source in enumerate(self.SOURCES):
            service.add_document(f"doc{index}", source)
        assert service.warmup() == len(self.SOURCES)
        assert constructed_units == []

    def test_compact_honours_edits_to_a_built_tree(self):
        sc = PIPELINE.run(parse_xml(PAPER))
        held = sc.compact()
        assert sc.compact() is held
        paragraph = sc.paragraphs()[0]
        paragraph.payload = b"edited"
        paragraph.own_counts = {"edit": 3}
        edited = sc.compact()
        assert edited is not held
        position = [unit.label for unit in sc.root.walk()].index(paragraph.label)
        assert edited.own_payload(position) == b"edited"
        keywords = edited.table.keywords
        assert [(keywords[key], count) for key, count in edited.own_pairs(position)] == [
            ("edit", 3)
        ]
        assert edited.payload_size == held.payload_size - len(
            held.own_payload(position)
        ) + len(b"edited")
