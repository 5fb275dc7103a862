"""Tests for the five-stage SC generation pipeline."""

import hashlib
from pathlib import Path

import pytest

from repro.core.lod import LOD
from repro.core.pipeline import (
    DocumentRecognizer,
    KeywordExtractorStage,
    LemmatizerStage,
    SCPipeline,
    WordFilterStage,
    build_sc,
)
from repro.data import draft_paper_path
from repro.simulation.textgen import CorpusGenerator
from repro.xmlkit.parser import parse_xml

XML = """<paper>
  <title>Mobile Web</title>
  <abstract><paragraph>Summary of browsing browsers.</paragraph></abstract>
  <section>
    <title>First Section</title>
    <paragraph>Loose paragraph one with packets.</paragraph>
    <paragraph>Loose paragraph two with <emph>dispersal</emph>.</paragraph>
    <subsection>
      <title>Real Subsection</title>
      <paragraph>Nested paragraph content about caching.</paragraph>
    </subsection>
  </section>
  <section>
    <title>Second Section</title>
    <subsection>
      <title>Sub A</title>
      <subsubsection>
        <title>Deep</title>
        <paragraph>Deep paragraph about channels.</paragraph>
      </subsubsection>
    </subsection>
  </section>
</paper>"""


class TestDocumentRecognizer:
    def recognize(self):
        return DocumentRecognizer().recognize(parse_xml(XML))

    def test_root_is_document(self):
        root = self.recognize()
        assert root.lod is LOD.DOCUMENT
        assert root.title == "Mobile Web"

    def test_abstract_is_section_zero(self):
        root = self.recognize()
        assert root.children[0].label == "0"
        assert root.children[0].lod is LOD.SECTION

    def test_sections_numbered(self):
        root = self.recognize()
        assert [child.label for child in root.children] == ["0", "1", "2"]

    def test_loose_paragraphs_grouped_in_virtual_subsection(self):
        root = self.recognize()
        section1 = root.children[1]
        virtual = section1.children[0]
        assert virtual.virtual
        assert virtual.label == "1.0"
        assert virtual.lod is LOD.SUBSECTION
        assert [p.label for p in virtual.children] == ["1.0.1", "1.0.2"]

    def test_real_subsection_follows_virtual(self):
        root = self.recognize()
        section1 = root.children[1]
        assert section1.children[1].label == "1.1"
        assert not section1.children[1].virtual

    def test_subsubsection_labels(self):
        root = self.recognize()
        deep = root.children[2].children[0].children[0]
        assert deep.lod is LOD.SUBSUBSECTION
        assert deep.label == "2.1.1"
        assert deep.children[0].label == "2.1.1.1"

    def test_emphasized_words_collected(self):
        root = self.recognize()
        paragraph = root.children[1].children[0].children[1]
        assert "dispersal" in paragraph.emphasized

    def test_rejects_non_paper_root(self):
        with pytest.raises(ValueError):
            DocumentRecognizer().recognize(parse_xml("<html/>"))


class TestStages:
    def test_lemmatizer_stage_produces_pairs(self):
        root = DocumentRecognizer().recognize(parse_xml(XML))
        LemmatizerStage().process(root)
        paragraph = root.children[0].children[0].children[0]
        assert paragraph.tokens
        originals = [orig for orig, _lemma in paragraph.tokens]
        assert "browsing" in originals

    def test_word_filter_removes_stopwords(self):
        root = DocumentRecognizer().recognize(parse_xml(XML))
        LemmatizerStage().process(root)
        WordFilterStage().process(root)
        for unit in root.walk():
            for original, _lemma in unit.tokens:
                assert original not in ("of", "with", "the", "about")

    def test_extractor_min_count(self):
        root = DocumentRecognizer().recognize(parse_xml(XML))
        LemmatizerStage().process(root)
        WordFilterStage().process(root)
        KeywordExtractorStage(min_count=3).process(root)
        # "caching" and "channels" appear once each, in paragraph
        # bodies only (not titles, not <emph>), so they are filtered;
        # "paragraph" occurs 4 times and stays.
        totals = {}
        for unit in root.walk():
            for lemma, count in unit.counts.items():
                totals[lemma] = totals.get(lemma, 0) + count
        assert "cach" not in totals
        assert "channel" not in totals
        assert totals["paragraph"] >= 3

    def test_emphasized_survives_min_count(self):
        root = DocumentRecognizer().recognize(parse_xml(XML))
        LemmatizerStage().process(root)
        WordFilterStage().process(root)
        KeywordExtractorStage(min_count=5).process(root)
        all_lemmas = set()
        for unit in root.walk():
            all_lemmas.update(unit.counts)
        assert "dispers" in all_lemmas  # <emph> keeps it


class TestFullPipeline:
    def test_build_sc(self):
        sc = build_sc(parse_xml(XML))
        assert sc.root.lod is LOD.DOCUMENT
        assert sc.size_bytes() > 0
        assert len(sc.vector) > 0

    def test_vector_matches_tree_counts(self):
        sc = build_sc(parse_xml(XML))
        assert dict(sc.vector.items()) == sc.root.counts()

    def test_units_carry_payload(self):
        sc = build_sc(parse_xml(XML))
        paragraph = sc.unit("1.0.1")
        assert b"packets" in paragraph.payload.lower()

    def test_shared_lemmatizer_exposed(self):
        pipeline = SCPipeline()
        assert pipeline.shared_lemmatizer is pipeline.lemmatizer.lemmatizer

    def test_table1_shape_on_draft_paper(self):
        """The bundled draft paper yields the Table 1 structure."""
        from repro.data import draft_paper_source

        sc = build_sc(parse_xml(draft_paper_source()))
        assert sc.unit("0") is not None       # abstract = section 0
        assert sc.unit("3.1") is not None     # real subsections in §3
        assert sc.unit("1.0.1") is not None   # virtual subsection paragraphs


class TestTreePinned:
    """The SC tree that ``run()`` hands to tree consumers, bit for bit.

    The CLI's ``sc`` and ``schedule`` commands, the figures, Table 1,
    search and the prototype all read this tree.  One digest covers,
    per unit in ``walk()`` order, the LOD, label, title, virtual flag,
    payload, own counts and subtree counts, then the occurrence vector,
    of the bundled paper and 20 ``CorpusGenerator`` documents.  It was
    recorded before the pipeline stopped building the tree eagerly.
    """

    DIGEST = "a9114bb788d67295108336f3b38483eea194c49901a7a19a92306924d95fd9f9"

    @staticmethod
    def fields(sc):
        for unit in sc.root.walk():
            yield (
                f"{int(unit.lod)}\x00{unit.label}\x00{unit.title}\x00{int(unit.virtual)}"
            ).encode()
            yield unit.payload
            yield repr(list(unit.own_counts.items())).encode()
            yield repr(list(unit.counts().items())).encode()
        yield repr(list(sc.vector.items())).encode()

    def test_tree_fields(self):
        pipeline = SCPipeline()
        sources = [Path(draft_paper_path()).read_text(encoding="utf-8")]
        sources += [xml for xml, _topic in CorpusGenerator(seed=1).corpus(20).values()]
        digest = hashlib.sha256()
        for source in sources:
            for field in self.fields(pipeline.run(parse_xml(source))):
                digest.update(len(field).to_bytes(8, "big"))
                digest.update(field)
        assert digest.hexdigest() == self.DIGEST
