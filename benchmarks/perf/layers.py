"""The traced run: which public functions are wrapped, and what they yield.

Span names are ``layer:function``; the layer names follow the
repository's modules (``net.wire``, ``net.socket``, ``prep.service``,
``core.pipeline``, ``coding``, ``protocol``, ``transport.cache``,
``obs``, ``channel``).  Every function is patched in the namespace of
the module that calls it, so the program itself is never edited.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from spans import Aggregate, SpanSet, Tracer, account, busy_by_layer

_EMPTY = Aggregate()

#: A traced run is invalid when a span claims more CPU than its wall
#: time (the 1% allows for the two clocks' rates)...
MAX_SPAN_CPU_SHARE = 1.01
#: ...or a span's children used more CPU than the span itself...
MIN_SELF_CPU_US = -1.0
#: ...or a thread's spans claim more CPU than the thread ran, by more
#: than one scheduler tick (4 ms at 250 Hz): a running thread's
#: ``schedstat`` advances once per tick, so the read closing the
#: window may lag the spans' ``thread_time`` by that much...
REMAINDER_SLACK_MS = 5.0
#: ...or the per-thread view misses more than this share of the
#: process CPU.
MAX_ACCOUNTING_ERROR_PCT = 5.0


def install_server(tracer: Tracer) -> None:
    """Wrap the server process's layers (run before ``repro.cli.main``)."""
    import asyncio
    import asyncio.base_events

    import repro.net.server as server
    import repro.prep.service as service
    from repro.coding.packets import Packetizer
    from repro.core.pipeline import SCPipeline
    from repro.obs.flight import FlightRecorder
    from repro.obs.slo import SLOTracker
    from repro.prep.prepare import PreparedDocument
    from repro.protocol.engine import TransferEngine

    def adopt_transfer_id(fields) -> None:
        trace = fields.get("trace") if isinstance(fields, dict) else None
        if isinstance(trace, dict) and isinstance(trace.get("transfer_id"), str):
            tracer.set_fetch(trace["transfer_id"])

    tracer.wrap(server, "encode_json", "net.wire:server.encode_json")
    tracer.wrap(server, "decode_json", "net.wire:server.decode_json", on_result=adopt_transfer_id)
    tracer.wrap(server, "read_expected", "net.wire:server.read")
    tracer.wrap(asyncio.StreamWriter, "write", "net.socket:write")
    tracer.wrap(asyncio.StreamWriter, "drain", "net.socket:drain")
    tracer.wrap_executor_hop(asyncio.base_events.BaseEventLoop, "prep.service:executor_hop")
    tracer.wrap(service.PreparationService, "prepare", "prep.service:prepare")
    tracer.wrap(service, "parse_xml", "prep.service:parse_xml")
    tracer.wrap(service, "annotate_sc", "prep.service:annotate_sc")
    tracer.wrap(SCPipeline, "run", "core.pipeline:run")
    tracer.wrap(Packetizer, "cook", "coding:encode.cook")
    tracer.wrap(PreparedDocument, "wire_frames", "prep.wire_frames:wire_frames")
    tracer.wrap(FlightRecorder, "record", "obs:flight.record")
    tracer.wrap(SLOTracker, "observe", "obs:slo.observe")
    for method in ("start", "on_round_ended"):
        tracer.wrap(TransferEngine, method, "protocol:engine")


def install_driver(tracer: Tracer, client_port: int, channel_class=None) -> None:
    """Wrap the driver process's layers: the client library and the proxy."""
    import asyncio

    import harness
    import repro.net.client as client
    from repro.protocol.engine import TransferEngine
    from repro.transport.cache import NullCache, PacketCache

    def connect_name(host, port, *args, **kwargs) -> str:
        return "net.client:connect" if port == client_port else "net.chaos:upstream_connect"

    def decode_name(m, n, original_size, intact, **kwargs) -> str:
        clear = all(sequence in intact for sequence in range(m))
        return "coding:decode.clear" if clear else "coding:decode.erasure"

    tracer.wrap(client, "encode_json", "net.wire:client.encode_json")
    tracer.wrap(client, "decode_json", "net.wire:client.decode_json")
    tracer.wrap(client, "read_message", "net.wire:client.read")
    tracer.wrap(client, "read_expected", "net.wire:client.read")
    tracer.wrap(asyncio, "open_connection", "net.client:connect", name_of=connect_name)
    tracer.wrap(client, "decode_frame", "coding:crc.decode_frame")
    tracer.wrap(client, "reconstruct_payload", "coding:decode.clear", name_of=decode_name)
    for method in ("start", "on_frame_intact", "on_frame_corrupt", "on_frame_lost",
                   "on_round_ended", "abort"):
        tracer.wrap(TransferEngine, method, "protocol:engine")
    for cache_class in (PacketCache, NullCache):
        for method in ("store", "load"):
            tracer.wrap(cache_class, method, f"transport.cache:{method}")
    tracer.wrap(PacketCache, "discard", "transport.cache:discard")
    if channel_class is not None:
        tracer.wrap(channel_class, "decide", "channel:decide")
    tracer.wrap(harness, "check_payload", "harness:check_payload")


# -- derivation ----------------------------------------------------------------


def _prep_service(spans: SpanSet, window: Tuple[float, float]) -> Dict[str, float]:
    """Hit/miss split of ``prepare`` and the executor hop's waiting time.

    A prepare span is a miss when a cook ran beneath it.  Miss and
    per-cook figures cover the server's whole life (its ``--warmup``
    cooks included), hit and hop figures the traced window.
    """
    found: Dict[str, list] = {"coding:encode.cook": [], "prep.service:prepare": [],
                              "prep.service:executor_hop": [], "prep.wire_frames:wire_frames": []}
    for index in spans.indices():
        bucket = found.get(spans.label(index))
        if bucket is not None:
            bucket.append(index)
    cooks, prepares = found["coding:encode.cook"], found["prep.service:prepare"]
    hops = set(found["prep.service:executor_hop"])
    cooked_under = {up for index in cooks for up in spans.ancestors(index)}
    in_prepare = set(prepares)
    in_window = lambda index: window[0] <= spans.c["start"][index] < window[1]
    misses = [spans.wall(i) for i in prepares if i in cooked_under]
    hits = [spans.wall(i) for i in prepares if i not in cooked_under and in_window(i)]
    window_hops = [i for i in hops if in_window(i)]
    hop_wall = sum(spans.wall(i) for i in window_hops)
    served = sum(
        spans.wall(i) for i in prepares if spans.c["parent"][i] in hops and in_window(i)
    )
    wire_in_cook = sum(
        spans.self_cpu[i]
        for i in found["prep.wire_frames:wire_frames"]
        if any(up in in_prepare for up in spans.ancestors(i))
    )
    return {
        "hit_us": _mean(hits) * 1e6,
        "miss_ms": _mean(misses) * 1e3,
        "executor_wait_us": (hop_wall - served) / len(window_hops) * 1e6 if window_hops else math.nan,
        "wire_frames_us_per_cook": wire_in_cook / len(cooks) * 1e6 if cooks else math.nan,
    }


def _mean(values) -> float:
    return sum(values) / len(values) if values else math.nan


def layer_metrics(
    traced,
    untraced,
    server: SpanSet,
    driver: SpanSet,
    *,
    lag_p99_ms: float,
    calibration_drift_pct: float,
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """Per-layer metrics and the busy-time table of one traced window.

    *traced* and *untraced* are :class:`harness.Window` records of the
    same workload, the first recorded under tracing.  Returns the
    metrics by name and, per side, each layer's busy milliseconds per
    fetch plus the remainder.
    """
    window = (traced.t0, traced.t1)
    fetches = traced.completed
    per = lambda value: value / fetches
    s = server.aggregate(window)
    d = driver.aggregate(window)
    life = server.aggregate()
    S = lambda name: s.get(name, _EMPTY)
    D = lambda name: d.get(name, _EMPTY)

    server_acc = account(server.busy_by_thread(window), traced.server_threads, traced.server_cpu)
    driver_acc = account(driver.busy_by_thread(window), traced.driver_threads, traced.driver_cpu)
    cpu_traced = per(traced.server_cpu + traced.driver_cpu)
    cpu_untraced = (untraced.server_cpu + untraced.driver_cpu) / untraced.completed

    batches = traced.server_delta["batches_sent"]
    prep = _prep_service(server, window)
    hits, misses = traced.prep_delta["cooked_hits"], traced.prep_delta["cooked_misses"]
    decodes = D("coding:decode.clear").count + D("coding:decode.erasure").count
    crc = D("coding:crc.decode_frame")
    pipeline = life.get("core.pipeline:run", _EMPTY)
    cook = life.get("coding:encode.cook", _EMPTY)
    cache = [entry for name, entry in d.items() if name.startswith("transport.cache:")]

    metrics = {
        "net.server.remainder_ms_per_fetch": per(server_acc["remainder"]) * 1e3,
        "net.server.batches_per_fetch": per(batches),
        "net.server.bytes_per_batch": traced.server_delta["bytes_sent"] / batches if batches else math.nan,
        "net.server.sendq_high_water_bytes": traced.sendq_high_water_bytes,
        "net.server.resumed_frames_skipped_per_fetch": per(traced.server_delta["resumed_frames_skipped"]),
        "net.socket.writes_per_fetch": per(S("net.socket:write").count),
        "net.socket.write_us_per_fetch": per(S("net.socket:write").cpu) * 1e6,
        "net.socket.drain_wait_us_per_fetch": per(S("net.socket:drain").wall) * 1e6,
        "net.wire.server_json_us_per_fetch": per(
            S("net.wire:server.encode_json").cpu + S("net.wire:server.decode_json").cpu) * 1e6,
        "net.wire.client_json_us_per_fetch": per(
            D("net.wire:client.encode_json").cpu + D("net.wire:client.decode_json").cpu) * 1e6,
        "net.wire.client_reads_per_fetch": per(D("net.wire:client.read").count),
        "net.wire.client_read_wait_ms_per_fetch": per(D("net.wire:client.read").wall) * 1e3,
        "net.client.remainder_ms_per_fetch": per(driver_acc["remainder"]) * 1e3,
        "net.client.connect_ms": _mean_wall(D("net.client:connect")) * 1e3,
        "prep.service.hit_us": prep["hit_us"],
        "prep.service.miss_ms": prep["miss_ms"],
        "prep.service.executor_wait_us": prep["executor_wait_us"],
        "prep.service.cooked_hit_ratio": hits / (hits + misses) if hits + misses else math.nan,
        "prep.wire_frames_us_per_cook": prep["wire_frames_us_per_cook"],
        "core.pipeline.runs": pipeline.count,
        "core.pipeline.ms_per_run": _mean_wall(pipeline) * 1e3,
        "coding.encode_ms_per_cook": _mean_wall(cook) * 1e3,
        "coding.crc_us_per_frame": crc.cpu / crc.count * 1e6 if crc.count else math.nan,
        "coding.crc_ms_per_fetch": per(crc.cpu) * 1e3,
        "coding.decode_us_per_fetch": per(
            D("coding:decode.clear").cpu + D("coding:decode.erasure").cpu) * 1e6,
        "coding.erasure_decode_share": D("coding:decode.erasure").count / decodes if decodes else math.nan,
        "protocol.engine_events_per_fetch": per(D("protocol:engine").count),
        "protocol.engine_us_per_fetch": per(D("protocol:engine").cpu) * 1e6,
        "protocol.rounds_per_fetch": per(sum(x.rounds for x in traced.samples if x.ok)),
        "transport.cache.cache_us_per_fetch": per(sum(entry.cpu for entry in cache)) * 1e6,
        "obs.flight_records_per_fetch": per(S("obs:flight.record").count),
        "obs.server_us_per_fetch": per(S("obs:flight.record").cpu + S("obs:slo.observe").cpu) * 1e6,
        "channel.decisions_per_fetch": per(D("channel:decide").count),
        "net.chaos.corrupted_per_fetch": per(traced.proxy_delta.get("corrupted", 0)),
        "harness.lag_p99_ms": lag_p99_ms,
        "harness.trace_overhead_pct": (cpu_traced / cpu_untraced - 1.0) * 100.0,
        "harness.server_remainder_share": server_acc["remainder"] / traced.server_cpu,
        "harness.driver_remainder_share": driver_acc["remainder"] / traced.driver_cpu,
        "harness.server_min_thread_remainder_ms": server_acc["min_thread_remainder"] * 1e3,
        "harness.driver_min_thread_remainder_ms": driver_acc["min_thread_remainder"] * 1e3,
        "harness.server_max_span_cpu_share": server.max_cpu_share(window),
        "harness.driver_max_span_cpu_share": driver.max_cpu_share(window),
        "harness.server_min_self_cpu_us": server.min_self_cpu(window) * 1e6,
        "harness.driver_min_self_cpu_us": driver.min_self_cpu(window) * 1e6,
        "harness.server_accounting_error_pct": server_acc["error"] * 100.0,
        "harness.driver_accounting_error_pct": driver_acc["error"] * 100.0,
        "harness.calibration_drift_pct": calibration_drift_pct,
        "harness.samples": len(traced.samples),
    }
    table = {}
    for side, aggregates, acc, cpu in (("server", s, server_acc, traced.server_cpu),
                                       ("driver", d, driver_acc, traced.driver_cpu)):
        rows = {layer: per(busy) * 1e3 for layer, busy in sorted(busy_by_layer(aggregates).items())}
        rows["remainder"] = per(acc["remainder"]) * 1e3
        rows["process_cpu"] = per(cpu) * 1e3
        table[side] = rows
    return metrics, table


def trace_invalid_reasons(metrics: Dict[str, float]) -> List[str]:
    """Why the spans of a traced run cannot be trusted; empty when they can."""
    reasons = []
    for side in ("server", "driver"):
        # Each test is written so that NaN (no spans at all) fails it too.
        share = metrics[f"harness.{side}_max_span_cpu_share"]
        if not share <= MAX_SPAN_CPU_SHARE:
            reasons.append(f"a {side} span claims {share:.2f}x its wall time in CPU")
        self_cpu = metrics[f"harness.{side}_min_self_cpu_us"]
        if not self_cpu >= MIN_SELF_CPU_US:
            reasons.append(f"a {side} span's children used {-self_cpu:.0f} us more CPU than it")
        remainder = metrics[f"harness.{side}_min_thread_remainder_ms"]
        if not remainder >= -REMAINDER_SLACK_MS:
            reasons.append(f"{side} spans claim {-remainder:.1f} ms more CPU than their thread ran")
        error = metrics[f"harness.{side}_accounting_error_pct"]
        if not error <= MAX_ACCOUNTING_ERROR_PCT:
            reasons.append(f"{side} per-thread CPU misses {error:.1f}% of the process CPU")
    return reasons


def _mean_wall(entry: Aggregate) -> float:
    return entry.wall / entry.count if entry.count else math.nan
