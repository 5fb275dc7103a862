"""Tests for the summary-first baseline vs multi-resolution browsing."""

import random

import pytest

from repro.core.information import annotate_sc
from repro.core.pipeline import build_sc
from repro.browse.summarize import (
    build_summary,
    multiresolution_browse,
    summary_first_browse,
)
from repro.transport.channel import WirelessChannel
from repro.xmlkit.parser import parse_xml


def paper_sc():
    paragraphs = []
    for index in range(8):
        paragraphs.append(
            f"<paragraph>Lead sentence number {index} summarizes this part. "
            f"The remainder of paragraph {index} elaborates at length with "
            f"supporting detail, derivations and measurements that pad the "
            f"body well beyond the lead-in sentence.</paragraph>"
        )
    body = "".join(paragraphs)
    sc = build_sc(
        parse_xml(
            f"<paper><title>Summary Study</title>"
            f"<section><title>One</title>{body[:len(body)//2]}</section>"
            f"<section><title>Two</title>{body[len(body)//2:]}</section></paper>"
        )
    )
    annotate_sc(sc)
    return sc


class TestBuildSummary:
    def test_lead_sentences_extracted(self):
        summary = build_summary(paper_sc())
        assert "Summary Study" in summary
        assert "Lead sentence number 0 summarizes this part." in summary
        assert "elaborates at length" not in summary

    def test_summary_much_smaller(self):
        sc = paper_sc()
        summary = build_summary(sc)
        assert len(summary.encode()) < sc.size_bytes() / 2

    def test_max_sentences(self):
        summary = build_summary(paper_sc(), max_sentences=3)
        assert summary.count("summarizes this part") <= 3


class TestSummaryFirstBrowse:
    def test_irrelevant_costs_summary_only(self):
        sc = paper_sc()
        channel = WirelessChannel(alpha=0.0, rng=random.Random(0))
        result = summary_first_browse(sc, channel, relevant=False)
        assert result.document_result is None
        assert result.bytes_transferred_twice == 0
        assert result.response_time == result.summary_result.response_time

    def test_relevant_pays_summary_twice(self):
        """The paper's criticism: the full document is not a refinement
        of the summary, so relevant documents transfer summary bytes
        twice."""
        sc = paper_sc()
        channel = WirelessChannel(alpha=0.0, rng=random.Random(0))
        result = summary_first_browse(sc, channel, relevant=True)
        assert result.document_result is not None
        assert result.bytes_transferred_twice > 0
        assert result.response_time > result.summary_result.response_time

    def test_multiresolution_relevant_single_phase(self):
        sc = paper_sc()
        channel_sf = WirelessChannel(alpha=0.0, rng=random.Random(1))
        summary_first = summary_first_browse(sc, channel_sf, relevant=True)
        channel_mr = WirelessChannel(alpha=0.0, rng=random.Random(1))
        multires = multiresolution_browse(sc, channel_mr, relevant=True)
        assert multires.success
        # One stream beats summary + full document.
        assert multires.response_time < summary_first.response_time

    def test_multiresolution_irrelevant_early_stop(self):
        sc = paper_sc()
        channel = WirelessChannel(alpha=0.0, rng=random.Random(2))
        result = multiresolution_browse(sc, channel, relevant=False, threshold=0.3)
        assert result.terminated_early

    def test_lossy_channel_summary_first_still_works(self):
        sc = paper_sc()
        channel = WirelessChannel(alpha=0.25, rng=random.Random(3))
        result = summary_first_browse(sc, channel, relevant=True)
        assert result.summary_result.success
        assert result.document_result.success
