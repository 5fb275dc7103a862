"""Extension bench: summary-first baseline and intuition-level ordering.

* The related-work summarization baseline ([5, 14]) transmits a
  lead-in summary first and, for relevant documents, the full document
  afterwards — paying the summary bytes twice ("the whole document is
  often not a refinement of the summary", §2).  Multi-resolution
  reaches the same decisions in a single stream.
* The §6 "intuition level" proposal composes a structural prior with
  information content; on documents whose high-IC mass sits in
  low-value sections (references, boilerplate) it re-ranks the stream.
"""

import random

from conftest import emit

from repro.core.information import annotate_sc
from repro.core.intuition import annotate_intuition
from repro.core.lod import LOD
from repro.core.multires import TransmissionSchedule
from repro.core.pipeline import build_sc
from repro.browse.summarize import multiresolution_browse, summary_first_browse
from repro.figures import format_table
from repro.transport.channel import WirelessChannel
from repro.xmlkit.parser import parse_xml

DOCUMENT_XML = (
    "<paper><title>Benchmark Document</title>"
    + "".join(
        f"<section><title>Section {s}</title>"
        + "".join(
            f"<paragraph>Lead sentence of paragraph {s}.{p} summarizes it. "
            f"Extended elaboration follows with measurements, derivations "
            f"and discussion that dominate the byte count of part {s}.{p}, "
            f"as in any realistic technical document.</paragraph>"
            for p in range(4)
        )
        + "</section>"
        for s in range(5)
    )
    + "</paper>"
)

SESSION = 20
IRRELEVANT_EVERY = 2  # half the documents are irrelevant


def test_summary_first_vs_multiresolution(benchmark):
    sc = build_sc(parse_xml(DOCUMENT_XML))
    annotate_sc(sc)

    def run():
        rng = random.Random(17)
        per_regime = {
            ("summary-first", True): 0.0,
            ("summary-first", False): 0.0,
            ("multi-resolution", True): 0.0,
            ("multi-resolution", False): 0.0,
        }
        double_paid = 0
        for index in range(SESSION):
            relevant = index % IRRELEVANT_EVERY == 0
            channel = WirelessChannel(alpha=0.2, rng=random.Random(rng.getrandbits(32)))
            sf = summary_first_browse(sc, channel, relevant=relevant)
            per_regime[("summary-first", relevant)] += sf.response_time
            double_paid += sf.bytes_transferred_twice

            channel = WirelessChannel(alpha=0.2, rng=random.Random(rng.getrandbits(32)))
            mr = multiresolution_browse(sc, channel, relevant=relevant, threshold=0.3)
            per_regime[("multi-resolution", relevant)] += mr.response_time
        return per_regime, double_paid

    per_regime, double_paid = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "extension_summary_baseline",
        format_table(
            [
                (strategy, "relevant" if relevant else "irrelevant", time)
                for (strategy, relevant), time in sorted(per_regime.items())
            ]
            + [("summary-first bytes paid twice", "", double_paid)],
            headers=("strategy", "documents", "session time (s)"),
        ),
    )
    # The paper's criticism verified: for RELEVANT documents the full
    # download is not a refinement of the summary, so summary-first
    # pays the summary bytes twice and is strictly slower.
    assert (
        per_regime[("multi-resolution", True)]
        < per_regime[("summary-first", True)]
    )
    assert double_paid > 0
    # The flip side (an honest ablation): for irrelevant documents a
    # tiny summary can undercut downloading content F of the full
    # document — the regimes trade off, which is why the paper's
    # single-stream refinement property matters.
    assert per_regime[("summary-first", False)] > 0


def test_intuition_reranking(benchmark):
    source = (
        "<paper><title>T</title>"
        "<abstract><paragraph>Short abstract summarizing the work.</paragraph></abstract>"
        "<section><title>Introduction</title>"
        "<paragraph>Brief opening with modest keyword mass here.</paragraph></section>"
        "<section><title>Methodology</title>"
        "<paragraph>Dense central material with many distinct keywords: "
        "dispersal matrices, packets, channels, redundancy, reconstruction, "
        "bandwidth, corruption, retransmission, caching.</paragraph></section>"
        "<section><title>References</title>"
        "<paragraph>Long reference list: citation alpha, citation beta, "
        "citation gamma, citation delta, citation epsilon, citation zeta, "
        "citation eta, citation theta, citation iota, citation kappa, "
        "citation lambda, citation mu, citation nu, citation xi.</paragraph>"
        "</section></paper>"
    )

    def run():
        sc = build_sc(parse_xml(source))
        annotate_sc(sc)
        annotate_intuition(sc)
        by_ic = [u.label for u in TransmissionSchedule(sc, lod=LOD.SECTION, measure="ic").units]
        by_intuition = [
            u.label for u in TransmissionSchedule(sc, lod=LOD.SECTION, measure="intuition").units
        ]
        return sc, by_ic, by_intuition

    sc, by_ic, by_intuition = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "extension_intuition",
        format_table(
            [(" > ".join(by_ic), " > ".join(by_intuition))],
            headers=("IC order", "intuition order"),
        ),
    )
    # References carry lots of raw keyword mass but readers don't want
    # them first; the intuition prior demotes them.
    assert by_ic.index("3") < by_intuition.index("3")
    # The composite stays a valid content measure (document total kept).
    assert abs(sc.root.content["intuition"] - sc.root.content["ic"]) < 1e-9
