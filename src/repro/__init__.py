"""repro — fault-tolerant multi-resolution transmission for
weakly-connected mobile web browsing.

A complete reproduction of *"On Supporting Weakly-Connected Browsing
in a Mobile Web Environment"* (Leong, McLeod, Si, Yau; ICDCS 2000),
including every substrate the paper depends on:

* :mod:`repro.core` — organizational units, the structural
  characteristic pipeline, the IC/QIC/MQIC content measures, and
  LOD-ordered transmission scheduling (the paper's contribution);
* :mod:`repro.coding` — GF(2^8) erasure coding (Rabin dispersal and
  its systematic Vandermonde form), CRC, and packet framing;
* :mod:`repro.analysis` — the negative binomial packet model, the
  minimal-N planner, and EWMA-adaptive redundancy;
* :mod:`repro.protocol` — the sans-IO §4.2 transfer engine: one pure
  state machine (rounds, termination, stalls, cache policy) driven by
  the transport, simulation, and prototype layers;
* :mod:`repro.transport` — the lossy wireless channel, the
  round-based transfer protocol with Caching/NoCaching, ARQ and
  compression baselines, and content-driven prefetching;
* :mod:`repro.xmlkit` / :mod:`repro.htmlkit` — from-scratch XML and
  HTML parsing plus research-paper structure extraction;
* :mod:`repro.text` — tokenization, Porter stemming, stop-word
  filtering, keyword extraction, occurrence vectors;
* :mod:`repro.search` — the inverted-index search engine that drives
  query-based content measures;
* :mod:`repro.simulation` — the §5 evaluation: Table 2 parameters,
  synthetic workloads, and Experiments #1–#4;
* :mod:`repro.browse` — the summary-first browsing baseline and
  profile-driven cluster prefetching, built on the layers above;
* :mod:`repro.prototype` — the Figure 1 browser/server prototype;
* :mod:`repro.figures` — one entry point per paper table and figure.

* :mod:`repro.prep` — the on-demand preparation service: a two-tier
  (SC + cooked) byte-budgeted cache in front of the whole
  parse → pipeline → annotate → schedule → encode chain.

Quickstart — the one-shot facade::

    import repro

    prepared = repro.prepare("paper.xml", query="mobile web", lod="section")
    result = repro.transfer("paper.xml", query="mobile web")

or the underlying pieces::

    from repro import build_sc, annotate_sc, Query, TransmissionSchedule, LOD
    from repro.xmlkit import parse_xml

    sc = build_sc(parse_xml(xml_source))
    annotate_sc(sc, query=Query("mobile web browsing"))
    schedule = TransmissionSchedule(sc, lod=LOD.PARAGRAPH, measure="qic")
"""

from repro.util.lazy import lazy_exports

# The facade is lazy (PEP 562): ``import repro`` loads no subpackage,
# and each name below imports its home module on first use, so a
# serving process never pays for the simulators or the prototype.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.core.lod": ("LOD",),
    "repro.core.structure": ("OrganizationalUnit", "StructuralCharacteristic"),
    "repro.core.query": ("Query",),
    "repro.core.information": ("ModifiedQueryIC", "QueryIC", "StaticIC", "annotate_sc"),
    "repro.core.pipeline": ("SCPipeline", "build_sc"),
    "repro.core.multires": (
        "TransmissionSchedule",
        "best_first_schedule",
        "conventional_schedule",
    ),
    "repro.coding.packets": ("Packetizer",),
    "repro.coding.rs": ("RabinDispersal", "SystematicRSCodec"),
    "repro.protocol.engine": (
        "DEFAULT_MAX_ROUNDS",
        "DEFAULT_ROUND_TIMEOUT",
        "TransferEngine",
    ),
    "repro.analysis.ewma": ("AdaptiveRedundancyController",),
    "repro.analysis.planner": ("minimal_cooked_packets", "redundancy_ratio"),
    "repro.transport.cache": ("NullCache", "PacketCache"),
    "repro.transport.channel": ("WirelessChannel",),
    "repro.transport.session": ("TransferResult", "transfer_document"),
    "repro.prep.prepare": ("DocumentSender",),
    "repro.prep.request": ("PrepRequest", "TransferSettings"),
    "repro.prep.service": ("PreparationService",),
    "repro.prep": ("default_service", "prepare"),
    "repro.browse.summarize": (
        "SummaryFirstResult",
        "build_summary",
        "multiresolution_browse",
        "summary_first_browse",
    ),
    "repro.browse.cluster": ("ClusterError", "DocumentCluster"),
    "repro.simulation.parameters": ("Parameters", "table2_defaults"),
    "repro.simulation.runner": ("simulate_session",),
})

__version__ = "1.0.0"


def transfer(document, *, channel=None, settings=None, request=None,
             html=False, service=None, cache=None, **request_fields):
    """One-shot: prepare *document* and run the §4.2 protocol over a channel.

    *document* is anything :func:`repro.prepare` accepts (a path or
    markup string); preparation parameters come from *request* (a
    :class:`PrepRequest`) or loose ``**request_fields`` such as
    ``query=...``/``lod=...``.  Protocol knobs come from *settings*
    (a :class:`TransferSettings`).  When *channel* is omitted a
    default Table 2 :class:`WirelessChannel` is used.  Returns the
    :class:`TransferResult`.
    """
    from repro.prep import TransferSettings, prepare
    from repro.transport import WirelessChannel, transfer_document

    prepared = prepare(
        document, request=request, html=html, service=service, **request_fields
    )
    if channel is None:
        channel = WirelessChannel()
    if settings is None:
        settings = TransferSettings()
    return transfer_document(prepared, channel, cache=cache, settings=settings)

__all__ = [
    "__version__",
    # core
    "LOD",
    "OrganizationalUnit",
    "StructuralCharacteristic",
    "Query",
    "StaticIC",
    "QueryIC",
    "ModifiedQueryIC",
    "annotate_sc",
    "SCPipeline",
    "build_sc",
    "TransmissionSchedule",
    "best_first_schedule",
    "conventional_schedule",
    # coding
    "SystematicRSCodec",
    "RabinDispersal",
    "Packetizer",
    # analysis
    "minimal_cooked_packets",
    "redundancy_ratio",
    "AdaptiveRedundancyController",
    # protocol
    "DEFAULT_MAX_ROUNDS",
    "DEFAULT_ROUND_TIMEOUT",
    "TransferEngine",
    # transport
    "WirelessChannel",
    "PacketCache",
    "NullCache",
    "DocumentSender",
    "transfer_document",
    "TransferResult",
    # prep (the request-facing facade)
    "PreparationService",
    "PrepRequest",
    "TransferSettings",
    "default_service",
    "prepare",
    "transfer",
    # browse (the paper's browsing baselines and cluster prefetching)
    "build_summary",
    "summary_first_browse",
    "multiresolution_browse",
    "SummaryFirstResult",
    "DocumentCluster",
    "ClusterError",
    # simulation
    "Parameters",
    "table2_defaults",
    "simulate_session",
]
