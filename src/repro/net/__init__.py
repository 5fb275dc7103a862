"""repro.net — the §4.2 protocol over real sockets.

The asyncio network layer: a :class:`NetServer` streams cooked frames
over TCP behind a length-prefixed wire codec
(:mod:`repro.net.wire`), a :class:`NetClient` drives the sans-IO
:class:`~repro.protocol.TransferEngine` against the socket with
reconnect-and-resume from the packet cache, a :class:`ChaosProxy`
replays seeded :class:`~repro.channel.ChannelModel` schedules (drop /
corrupt / disconnect — i.i.d., Gilbert–Elliott, or trace) against the
live byte stream, and
:func:`run_loadgen` fans out concurrent fetches with latency
percentiles and an SLO verdict.  Operational telemetry rides the same
wire: ``HELLO`` carries a trace context, the ``STATS`` admin frame
(:func:`fetch_stats`) returns the server's live snapshot, and
:class:`StatsHTTP` serves it over HTTP for Prometheus scrapes.  See
``docs/networking.md`` for the wire format and the chaos-testing
recipe, ``docs/observability.md`` for the telemetry surface.

Layering: this package sits beside :mod:`repro.transport` — it may
import the protocol engine, the coding/framing layer, transport's
sender/cache state, and telemetry, but never the simulators, the
prototype, or the CLI (enforced by ``tools/check_layering.py``).
"""

from repro.util.lazy import lazy_exports

# Lazy (PEP 562): the server process imports repro.net.server without
# loading the client, the load generator or the chaos proxy.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.net.chaos": ("ChaosProxy",),
    "repro.net.client": ("FETCH_BUCKETS", "NetClient", "NetFetchResult", "fetch_stats"),
    "repro.net.loadgen": (
        "ClientOutcome",
        "LoadgenReport",
        "bench_record",
        "outcome_of",
        "run_loadgen",
        "run_loadgen_mp",
        "summarize_outcomes",
        "summarize_results",
        "write_bench",
    ),
    "repro.net.server": ("DocumentStore", "NetServer"),
    "repro.net.stats_http": ("StatsHTTP", "render_exposition"),
    "repro.net.workers": ("HAVE_REUSE_PORT", "WorkerConfig", "WorkerPool", "merge_snapshots"),
    "repro.net.wire": (
        "ENVELOPE_OVERHEAD",
        "MAX_MESSAGE_SIZE",
        "MESSAGE_NAMES",
        "MSG_DONE",
        "MSG_ERROR",
        "MSG_FRAME",
        "MSG_HELLO",
        "MSG_MANIFEST",
        "MSG_NEXT_ROUND",
        "MSG_ROUND_END",
        "MSG_STATS",
        "ConnectionLost",
        "WireError",
        "decode_json",
        "encode_json",
        "encode_message",
        "read_expected",
        "read_message",
    ),
})

__all__ = [
    "NetServer",
    "DocumentStore",
    "NetClient",
    "NetFetchResult",
    "FETCH_BUCKETS",
    "fetch_stats",
    "StatsHTTP",
    "render_exposition",
    "ChaosProxy",
    "run_loadgen",
    "run_loadgen_mp",
    "summarize_results",
    "summarize_outcomes",
    "outcome_of",
    "ClientOutcome",
    "bench_record",
    "write_bench",
    "LoadgenReport",
    "WorkerConfig",
    "WorkerPool",
    "merge_snapshots",
    "HAVE_REUSE_PORT",
    "WireError",
    "ConnectionLost",
    "encode_message",
    "encode_json",
    "decode_json",
    "read_message",
    "read_expected",
    "MESSAGE_NAMES",
    "MAX_MESSAGE_SIZE",
    "ENVELOPE_OVERHEAD",
    "MSG_HELLO",
    "MSG_MANIFEST",
    "MSG_FRAME",
    "MSG_ROUND_END",
    "MSG_NEXT_ROUND",
    "MSG_DONE",
    "MSG_ERROR",
    "MSG_STATS",
]
