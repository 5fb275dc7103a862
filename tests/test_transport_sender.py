"""Tests for the document sender and its content profiles."""

import pytest

from repro.coding.packets import Packetizer
from repro.core.information import annotate_sc
from repro.core.lod import LOD
from repro.core.multires import TransmissionSchedule
from repro.core.pipeline import build_sc
from repro.core.query import Query
from repro.data import draft_paper_source
from repro.prep import DocumentSender
from repro.simulation.textgen import CorpusGenerator
from repro.xmlkit.parser import parse_xml

XML = """<paper>
  <title>Profile Paper</title>
  <section><title>Big</title>
    <paragraph>word word word word word word word word word word word
    word word word word word word word word word word word word word
    packet channel redundancy dispersal reconstruction bandwidth unit
    corruption retransmission caching content resolution browsing
    document wireless mobile network</paragraph>
  </section>
  <section><title>Small</title>
    <paragraph>tiny bit</paragraph>
  </section>
</paper>"""


def scheduled(lod=LOD.PARAGRAPH):
    sc = build_sc(parse_xml(XML))
    annotate_sc(sc)
    return TransmissionSchedule(sc, lod=lod, measure="ic")


class TestPrepare:
    def test_counts_match_packetizer(self):
        schedule = scheduled()
        packetizer = Packetizer(packet_size=64, redundancy_ratio=1.5)
        prepared = DocumentSender(packetizer).prepare("doc", schedule)
        assert prepared.m == packetizer.raw_packet_count(len(schedule.payload()))
        assert prepared.n == packetizer.cooked_packet_count(prepared.m)

    def test_empty_document_rejected(self):
        sender = DocumentSender()
        with pytest.raises(ValueError):
            sender.prepare_raw("doc", b"")

    def test_profile_length_and_total(self):
        schedule = scheduled()
        prepared = DocumentSender(Packetizer(packet_size=64)).prepare("doc", schedule)
        assert len(prepared.content_profile) == prepared.m
        assert sum(prepared.content_profile) == pytest.approx(1.0)

    def test_profile_matches_schedule_prefix(self):
        """Profile entries are exact increments of content_prefix."""
        schedule = scheduled()
        size = 64
        prepared = DocumentSender(Packetizer(packet_size=size)).prepare("doc", schedule)
        for index, share in enumerate(prepared.content_profile):
            expected = schedule.content_prefix(
                (index + 1) * size
            ) - schedule.content_prefix(index * size)
            assert share == pytest.approx(expected)

    def test_ranked_profile_frontloaded(self):
        """IC ranking puts the big section's packets first."""
        ranked = scheduled(LOD.SECTION)
        prepared = DocumentSender(Packetizer(packet_size=64)).prepare("doc", ranked)
        profile = prepared.content_profile
        first_half = sum(profile[: len(profile) // 2])
        assert first_half > 0.5

    def test_raw_profile_uniform(self):
        prepared = DocumentSender(Packetizer(packet_size=64)).prepare_raw(
            "doc", b"z" * 640
        )
        assert prepared.content_profile == pytest.approx([0.1] * 10)

    def test_frames_count(self):
        prepared = DocumentSender(Packetizer(packet_size=64)).prepare_raw(
            "doc", b"z" * 640
        )
        assert len(prepared.frames()) == prepared.n


def _exact_sources():
    """(name, xml, query) — the bundled paper, seeded corpus docs, one paragraph."""
    generator = CorpusGenerator(seed=1)
    sources = [("paper", draft_paper_source(), "mobile web browsing")]
    for name, (xml, topic) in generator.corpus(4).items():
        sources.append((name, xml, generator.topic_query(topic)))
    # One 150-byte paragraph: every packet boundary falls inside it and
    # the payload ends partway through the last packet.
    body = "channel " * 18 + "packet"
    single = f"<paper><section><paragraph>{body}</paragraph></section></paper>"
    sources.append(("single", single, "channel"))
    return sources


class TestProfileExact:
    """The one-pass profile equals content_prefix differences bit for bit."""

    @pytest.mark.parametrize("measure", ["ic", "mqic"])
    @pytest.mark.parametrize("lod", [LOD.SECTION, LOD.PARAGRAPH])
    @pytest.mark.parametrize("size", [64, 256])
    @pytest.mark.parametrize(
        "name, xml, query",
        [pytest.param(*source, id=source[0]) for source in _exact_sources()],
    )
    def test_profile_equals_prefix_differences(
        self, name, xml, query, size, lod, measure
    ):
        sc = build_sc(parse_xml(xml))
        annotate_sc(sc, query=Query(query))
        schedule = TransmissionSchedule(sc, lod=lod, measure=measure)
        prepared = DocumentSender(Packetizer(packet_size=size)).prepare(name, schedule)
        assert len(prepared.content_profile) == prepared.m
        for index, share in enumerate(prepared.content_profile):
            expected = schedule.content_prefix(
                (index + 1) * size
            ) - schedule.content_prefix(index * size)
            assert share == expected, (index, share, expected)
        assert prepared.segments == schedule.segments()

    def test_single_source_ends_mid_segment(self):
        """The "single" case above covers a payload that ends inside its segment."""
        name, xml, query = _exact_sources()[-1]
        sc = build_sc(parse_xml(xml))
        annotate_sc(sc, query=Query(query))
        schedule = TransmissionSchedule(sc, lod=LOD.PARAGRAPH, measure="mqic")
        (segment,) = schedule.segments()
        assert (name, segment.size) == ("single", 150)
        prepared = DocumentSender(Packetizer(packet_size=64)).prepare(name, schedule)
        assert prepared.m == 3
