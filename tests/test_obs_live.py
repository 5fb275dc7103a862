"""Tier-1 tests for the live-operations observability pieces.

Socket-free: :class:`TraceContext` wire round-trips, the flight
recorder's bounded ring, the rolling SLO tracker, the Prometheus text
exposition, and the trace recorder's transfer-ID override.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.obs import (
    DEFAULT_FLIGHT_EVENTS,
    FlightRecorder,
    MetricsRegistry,
    SLOTracker,
    TraceContext,
    mint_transfer_id,
    prometheus_name,
    valid_trace_id,
)
from repro.net import merge_snapshots
from repro.net.stats_http import render_exposition
from repro.obs.slo import BUCKET_COUNT, RELATIVE_ERROR
from repro.obs.trace import NET_CONN_OPEN, TraceRecorder
from repro.util.stats import percentile


class TestTraceContext:
    def test_mint_is_wire_safe_and_unique(self):
        first, second = TraceContext.mint(), TraceContext.mint()
        assert valid_trace_id(first.transfer_id)
        assert first.transfer_id != second.transfer_id
        assert first.span_id is None

    def test_next_connection_counts_spans(self):
        ctx = TraceContext("abc123")
        assert ctx.next_connection() == "abc123.c1"
        assert ctx.next_connection() == "abc123.c2"
        assert ctx.transfer_id == "abc123"

    def test_wire_roundtrip(self):
        ctx = TraceContext.mint()
        ctx.next_connection()
        parsed = TraceContext.from_wire(ctx.to_wire())
        assert parsed is not None
        assert parsed.transfer_id == ctx.transfer_id
        assert parsed.span_id == ctx.span_id

    def test_wire_without_span(self):
        parsed = TraceContext.from_wire({"xfer": "abc"})
        assert parsed is not None
        assert parsed.transfer_id == "abc"
        assert parsed.span_id is None

    @pytest.mark.parametrize(
        "junk",
        [
            None,
            "a-string",
            42,
            [],
            {},
            {"xfer": ""},
            {"xfer": 17},
            {"xfer": "has spaces"},
            {"xfer": "x" * 65},
            {"xfer": 'inj"ect'},
        ],
    )
    def test_from_wire_rejects_junk(self, junk):
        assert TraceContext.from_wire(junk) is None

    def test_junk_span_is_dropped_not_fatal(self):
        parsed = TraceContext.from_wire({"xfer": "ok-id", "span": "bad span"})
        assert parsed is not None
        assert parsed.transfer_id == "ok-id"
        assert parsed.span_id is None

    def test_invalid_constructor_args_raise(self):
        with pytest.raises(ValueError):
            TraceContext("not valid!")
        with pytest.raises(ValueError):
            TraceContext("ok", span_id="bad span")

    def test_mint_transfer_id_shape(self):
        tid = mint_transfer_id()
        assert len(tid) == 16
        assert valid_trace_id(tid)


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        ring = FlightRecorder(capacity=4)
        for index in range(10):
            ring.record("evt", index=index)
        assert len(ring) == 4
        assert ring.recorded == 10
        assert ring.dropped == 6
        kept = [event["index"] for event in ring.snapshot()]
        assert kept == [6, 7, 8, 9]  # oldest fell off first

    def test_dump_shape(self):
        ring = FlightRecorder(capacity=8)
        ring.record("hello", doc="doc")
        ring.record("round", round=1, sent=12)
        dump = ring.dump("client_gone")
        assert dump["reason"] == "client_gone"
        assert dump["recorded"] == 2
        assert dump["dropped"] == 0
        assert [event["event"] for event in dump["events"]] == ["hello", "round"]
        assert all("ts" in event for event in dump["events"])

    def test_timestamps_monotonic(self):
        ring = FlightRecorder()
        ring.record("a")
        ring.record("b")
        first, second = ring.snapshot()
        assert second["ts"] >= first["ts"] >= 0.0

    def test_default_capacity(self):
        assert FlightRecorder().capacity == DEFAULT_FLIGHT_EVENTS

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestSLOTracker:
    def test_clean_window(self):
        slo = SLOTracker(target_seconds=1.0, error_budget=0.1, window=16)
        for _ in range(8):
            slo.observe(0.1, ok=True)
        assert slo.error_rate == 0.0
        assert slo.error_budget_remaining == 1.0
        report = slo.report()
        assert report["count"] == 8
        assert report["errors"] == 0
        assert report["over_target"] == 0

    def test_percentiles_over_window(self):
        slo = SLOTracker(window=100)
        for index in range(1, 101):
            slo.observe(index / 100.0)
        report = slo.report()
        assert report["p50_seconds"] == pytest.approx(0.50, abs=0.02)
        assert report["p95_seconds"] == pytest.approx(0.95, abs=0.02)
        assert report["p99_seconds"] == pytest.approx(0.99, abs=0.02)
        assert report["mean_seconds"] == pytest.approx(0.505, abs=0.01)

    def test_error_budget_burns_down_to_zero(self):
        slo = SLOTracker(error_budget=0.5, window=10)
        for _ in range(5):
            slo.observe(0.1, ok=True)
        for _ in range(5):
            slo.observe(0.1, ok=False)
        # error rate 0.5 == budget: fully spent, clamped at zero.
        assert slo.error_rate == pytest.approx(0.5)
        assert slo.error_budget_remaining == 0.0

    def test_window_ages_out_old_traffic(self):
        slo = SLOTracker(error_budget=0.5, window=4)
        for _ in range(4):
            slo.observe(0.1, ok=False)
        assert slo.error_budget_remaining == 0.0
        for _ in range(4):
            slo.observe(0.1, ok=True)
        # The failures aged out; lifetime totals still remember them.
        assert slo.error_rate == 0.0
        assert slo.error_budget_remaining == 1.0
        assert slo.total_errors == 4
        assert slo.total_observed == 8

    def test_over_target_counts_slow_successes(self):
        slo = SLOTracker(target_seconds=1.0)
        slo.observe(0.5, ok=True)
        slo.observe(2.0, ok=True)
        assert slo.report()["over_target"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SLOTracker(target_seconds=0)
        with pytest.raises(ValueError):
            SLOTracker(error_budget=0.0)
        with pytest.raises(ValueError):
            SLOTracker(error_budget=1.5)
        with pytest.raises(ValueError):
            SLOTracker(window=0)

    def test_window_keeps_two_bounded_halves(self):
        slo = SLOTracker(window=8)
        for index in range(1, 12):
            slo.observe(index / 1000.0, ok=index != 3)
        # Halves of 4: observations 5-8 and 9-11 remain; the error aged out.
        report = slo.report()
        assert len(slo) == report["count"] == 7
        assert report["errors"] == 0
        assert report["mean_seconds"] == pytest.approx(sum(range(5, 12)) / 7000.0)
        assert sum(hits for _, hits in report["buckets"]) == 7

    def test_report_round_trips_through_json(self):
        slo = SLOTracker()
        for seconds in (0.0, 0.003, 0.25, 7.0, 1e9):
            slo.observe(seconds)
        report = slo.report()
        assert json.loads(json.dumps(report)) == report
        # Out-of-range latencies land in the end buckets.
        assert [report["buckets"][0][0], report["buckets"][-1][0]] == [0, BUCKET_COUNT - 1]
        assert "repro_slo_buckets" not in render_exposition({"slo": report})

    def test_report_is_the_only_count_when_enabled(self):
        obs.enable()
        try:
            slo = SLOTracker()
            slo.observe(0.1, ok=True)
            slo.observe(0.2, ok=False)
            report = slo.report()
            assert report["total_observed"] == 2
            assert report["total_errors"] == 1
            assert report["error_budget_remaining"] == 0.0
            assert not [n for n in obs.OBS.metrics.names() if n.startswith("slo.")]
        finally:
            obs.disable(reset=True)


class TestPrometheusExposition:
    def test_name_sanitization(self):
        assert prometheus_name("net.frames_sent") == "net_frames_sent"
        assert prometheus_name("9lives") == "_9lives"
        assert prometheus_name("a-b c") == "a_b_c"

    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("net.frames", "frames moved").inc(3)
        registry.gauge("net.active").set(2)
        text = registry.render_prometheus()
        assert "# HELP net_frames frames moved" in text
        assert "# TYPE net_frames counter" in text
        assert "net_frames 3" in text
        assert "# TYPE net_active gauge" in text
        assert "net_active 2" in text
        assert text.endswith("\n")

    def test_labeled_children(self):
        registry = MetricsRegistry()
        family = registry.counter("fetches")
        family.labels(outcome="ok").inc(5)
        family.labels(outcome="failed").inc(1)
        text = registry.render_prometheus()
        assert 'fetches{outcome="ok"} 5' in text
        assert 'fetches{outcome="failed"} 1' in text
        # Pure family node (no direct observations) renders no bare line.
        assert "\nfetches 0" not in text

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", "latency", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        text = registry.render_prometheus()
        assert '# TYPE lat histogram' in text
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text
        assert "lat_sum 5.55" in text

    def test_prefix(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        text = registry.render_prometheus(prefix="repro.")
        assert "repro_x 1" in text

    def test_empty_registry(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_large_values_print_exactly(self):
        registry = MetricsRegistry()
        registry.counter("bytes").inc(12_345_678)
        registry.gauge("huge").set(2**60)
        registry.gauge("ratio").set(0.1234567891)
        text = registry.render_prometheus()
        assert "\nbytes 12345678\n" in text
        assert f"\nhuge {2**60}\n" in text
        assert "\nratio 0.1234567891\n" in text
        # The snapshot's flattened samples print through the same formatter.
        body = render_exposition({"server": {"bytes_sent": 12_345_678, "mean": 12_345_678.0}})
        assert "repro_server_bytes_sent 12345678\n" in body
        assert "repro_server_mean 12345678\n" in body


class TestTransferIdOverride:
    def test_emit_override_does_not_disturb_scope(self):
        recorder = TraceRecorder()
        recorder.begin_transfer(document="doc")
        scoped = recorder.current_transfer
        record = recorder.emit(NET_CONN_OPEN, transfer_id="wire-id", document="doc")
        assert record.transfer == "wire-id"
        assert recorder.current_transfer == scoped
        assert recorder.emit("plain").transfer == scoped

    def test_begin_transfer_adopts_given_id(self):
        recorder = TraceRecorder()
        tid = recorder.begin_transfer(document="doc", transfer_id="abc.def")
        assert tid == "abc.def"
        assert recorder.current_transfer == "abc.def"
        assert recorder.events[0].transfer == "abc.def"

    def test_begin_transfer_still_mints_without_id(self):
        recorder = TraceRecorder()
        assert recorder.begin_transfer(document="doc") == "t1"
        assert recorder.begin_transfer(document="doc") == "t2"


LATENCIES = st.lists(
    st.floats(min_value=1e-6, max_value=1e4, allow_nan=False), min_size=1, max_size=200
)


class TestSLOBuckets:
    @settings(max_examples=200, deadline=None)
    @given(LATENCIES)
    def test_percentiles_bracket_the_order_statistics(self, latencies):
        slo = SLOTracker(window=2 * len(latencies))
        for seconds in latencies:
            slo.observe(seconds)
        report = slo.report()
        ordered = sorted(latencies)
        for p in (50, 95, 99):
            rank = p / 100.0 * (len(ordered) - 1)
            low, high = ordered[math.floor(rank)], ordered[math.ceil(rank)]
            value = report[f"p{p}_seconds"]
            assert low * (1 - RELATIVE_ERROR) <= value * (1 + 1e-12)
            assert value <= high * (1 + RELATIVE_ERROR) * (1 + 1e-12)
            exact = percentile(ordered, p)
            assert abs(value - exact) <= RELATIVE_ERROR * high * (1 + 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(LATENCIES, LATENCIES, st.randoms(use_true_random=False))
    def test_merge_equals_one_tracker_over_both_streams(self, first, second, rng):
        size = 2 * (len(first) + len(second))
        workers = [SLOTracker(target_seconds=1.0, window=size) for _ in range(2)]
        whole = SLOTracker(target_seconds=1.0, window=size)
        for tracker, stream in zip(workers, (first, second)):
            for seconds in stream:
                ok = rng.random() < 0.9
                tracker.observe(seconds, ok=ok)
                whole.observe(seconds, ok=ok)
        merged = merge_snapshots([{"slo": t.report()} for t in workers])["slo"]
        expected = whole.report()
        for key in ("buckets", "count", "errors", "over_target", "error_rate",
                    "error_budget_remaining", "p50_seconds", "p95_seconds",
                    "p99_seconds", "total_observed", "total_errors"):
            assert merged[key] == expected[key], key
        assert merged["mean_seconds"] == pytest.approx(expected["mean_seconds"], rel=1e-9)
