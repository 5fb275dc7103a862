"""repro.obs — zero-dependency observability for the whole system.

Three instruments behind one process-global, **default-off** switch:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  fixed-bucket histograms with labeled children
  (``counter("frames_sent").labels(outcome="corrupt")``);
* :class:`~repro.obs.trace.TraceRecorder` — typed, monotonic-timestamped
  events (``frame_sent``, ``round_stalled``, ``decode_complete``, …)
  grouped by transfer ID and exportable as JSONL;
* :func:`~repro.obs.timing.timed` — scoped timers feeding
  ``<name>.seconds`` latency histograms.

Quickstart::

    from repro import obs

    obs.enable()
    ... run transfers / simulations / the prototype ...
    obs.OBS.trace.export_jsonl("out.jsonl")
    print(obs.OBS.metrics.render_table())
    obs.disable(reset=True)

Offline analysis of an exported trace::

    python -m repro obs-summary out.jsonl

Instrumented hot paths guard on ``OBS.enabled`` (one attribute read)
and allocate nothing while telemetry is off; see
``docs/observability.md`` for the event schema and metric names.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.obs.flight": ("DEFAULT_FLIGHT_EVENTS", "FlightRecorder"),
    "repro.obs.live": ("TraceContext", "mint_transfer_id", "valid_trace_id"),
    "repro.obs.metrics": (
        "DEFAULT_COUNT_BUCKETS",
        "DEFAULT_LATENCY_BUCKETS",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "prometheus_name",
    ),
    "repro.obs.orb": ("InvocationRecord", "TracingInterceptor"),
    "repro.obs.slo": (
        "DEFAULT_ERROR_BUDGET",
        "DEFAULT_SLO_WINDOW",
        "DEFAULT_TARGET_SECONDS",
        "SLOTracker",
    ),
    "repro.obs.runtime": ("OBS", "Observability", "disable", "enable", "enabled"),
    "repro.obs.timing": ("timed",),
    "repro.obs.trace": ("EVENT_SCHEMA", "TraceEvent", "TraceRecorder", "load_jsonl"),
})

__all__ = [
    "OBS",
    "Observability",
    "enable",
    "disable",
    "enabled",
    "timed",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_COUNT_BUCKETS",
    "TraceRecorder",
    "TraceEvent",
    "EVENT_SCHEMA",
    "load_jsonl",
    "TracingInterceptor",
    "InvocationRecord",
    "TraceContext",
    "mint_transfer_id",
    "valid_trace_id",
    "FlightRecorder",
    "DEFAULT_FLIGHT_EVENTS",
    "SLOTracker",
    "DEFAULT_ERROR_BUDGET",
    "DEFAULT_SLO_WINDOW",
    "DEFAULT_TARGET_SECONDS",
    "prometheus_name",
]
