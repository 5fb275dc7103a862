"""Span self time (executor threads included) and CPU accounting."""

import asyncio
import concurrent.futures
import math
import threading
import time
import types

import layers
from spans import NO_SPAN, SpanSet, Tracer, account, busy_by_layer


def _burn(seconds: float) -> None:
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def _module():
    module = types.SimpleNamespace()
    module.inner = lambda: _burn(0.02)

    def outer():
        _burn(0.01)
        module.inner()

    module.outer = outer
    return module


def test_self_time_subtracts_children_on_the_same_thread():
    module = _module()
    tracer = Tracer()
    tracer.wrap(module, "inner", "b:inner")
    tracer.wrap(module, "outer", "a:outer")
    module.outer()
    tracer.uninstall()
    spans = SpanSet.of(tracer)
    by_name = spans.aggregate()
    assert by_name["a:outer"].count == by_name["b:inner"].count == 1
    assert by_name["b:inner"].cpu >= 0.02
    assert 0.01 <= by_name["a:outer"].cpu < 0.015
    outer = next(i for i in spans.indices() if spans.label(i) == "a:outer")
    inner = next(i for i in spans.indices() if spans.label(i) == "b:inner")
    assert spans.c["parent"][inner] == outer and spans.c["parent"][outer] == NO_SPAN
    assert busy_by_layer(by_name).keys() == {"a", "b"}


def test_executor_spans_keep_parent_and_fetch_but_not_self_time():
    class Loop(asyncio.SelectorEventLoop):
        pass

    module = types.SimpleNamespace(work=lambda: _burn(0.02))
    tracer = Tracer()
    tracer.wrap(module, "work", "prep:work")
    tracer.wrap_executor_hop(Loop, "prep:hop")
    loop = Loop()
    pool = concurrent.futures.ThreadPoolExecutor(1)

    async def handler():
        tracer.set_fetch("transfer-1")
        await loop.run_in_executor(pool, module.work)

    try:
        loop.run_until_complete(handler())
    finally:
        tracer.uninstall()
        pool.shutdown()
        loop.close()
    spans = SpanSet.of(tracer)
    hop = next(i for i in spans.indices() if spans.label(i) == "prep:hop")
    work = next(i for i in spans.indices() if spans.label(i) == "prep:work")
    assert spans.c["parent"][work] == hop
    assert spans.c["fetch"][work] == spans.c["fetch"][hop] == 0
    assert spans.c["thread"][work] != threading.get_native_id()
    assert math.isnan(spans.self_cpu[hop])  # a wall-time span
    assert spans.self_cpu[work] >= 0.02     # nothing subtracted across threads
    assert spans.wall(hop) >= spans.wall(work)
    assert spans.busy_by_thread()[spans.c["thread"][work]] >= 0.02


def test_coroutine_spans_record_wall_time_only():
    async def wait():
        await asyncio.sleep(0.01)

    module = types.SimpleNamespace(wait=wait)
    tracer = Tracer()
    tracer.wrap(module, "wait", "net:wait")
    asyncio.run(module.wait())
    tracer.uninstall()
    entry = SpanSet.of(tracer).aggregate()["net:wait"]
    assert entry.wall >= 0.01 and entry.cpu == 0.0


def test_dump_and_load_round_trip(tmp_path):
    module = _module()
    tracer = Tracer()
    tracer.wrap(module, "outer", "a:outer")
    tracer.set_fetch("f")
    module.outer()
    path = tmp_path / "spans.json"
    tracer.dump(str(path))
    loaded = SpanSet.load(str(path))
    assert loaded.label(0) == "a:outer"
    assert loaded.self_cpu[0] == SpanSet.of(tracer).self_cpu[0]
    window = (loaded.c["start"][0], loaded.c["start"][0] + 1.0)
    assert loaded.aggregate(window)["a:outer"].count == 1
    assert loaded.aggregate((0.0, loaded.c["start"][0])) == {}


def test_busy_plus_remainder_adds_up_to_process_cpu():
    result = account({1: 0.3, 2: 0.1}, {1: 1.0, 2: 0.2, 3: 0.05}, process_cpu=1.25)
    assert result["busy"] == 0.4
    assert math.isclose(result["busy"] + result["remainder"], 1.25)
    assert result["error"] < 1e-9
    # Thread 3 ran no spans, so the check on the spans looks at 1 and 2 only.
    assert math.isclose(result["min_thread_remainder"], 0.1)
    # A thread missing from the per-thread view shows up as error.
    assert account({1: 0.3}, {1: 1.0}, process_cpu=1.25)["error"] == 0.2


def test_spans_claiming_more_than_their_thread_ran_are_caught():
    # Busy plus remainder still adds up: the sum alone cannot see this.
    doubled = account({1: 0.3, 2: 0.25}, {1: 1.0, 2: 0.2}, process_cpu=1.2)
    assert doubled["error"] < 1e-9
    assert math.isclose(doubled["min_thread_remainder"], -0.05)
    assert layers.trace_invalid_reasons(_harness_metrics(doubled))
    # Spans booked to a thread the per-thread view does not hold.
    stray = account({1: 0.3, 9: 0.01}, {1: 1.0}, process_cpu=1.0)
    assert stray["min_thread_remainder"] < 0
    sound = account({1: 0.3}, {1: 1.0}, process_cpu=1.0)
    assert layers.trace_invalid_reasons(_harness_metrics(sound)) == []
    no_spans = _harness_metrics(sound)
    no_spans["harness.driver_min_thread_remainder_ms"] = account({}, {1: 1.0}, 1.0)["min_thread_remainder"]
    assert layers.trace_invalid_reasons(no_spans)


def test_spans_claiming_cpu_outside_their_interval_are_caught():
    def span_cpu(cpu_scale):
        tracer = Tracer()
        module = _module()
        tracer.wrap(module, "inner", "b:inner")
        tracer.wrap(module, "outer", "a:outer")
        module.outer()
        tracer.uninstall()
        tracer.columns["cpu"][1] *= cpu_scale  # the inner span opened second
        return SpanSet.of(tracer)

    sound = span_cpu(1.0)
    assert 0.9 < sound.max_cpu_share() <= 1.0
    assert sound.min_self_cpu() > 0
    doubled = span_cpu(2.0)  # e.g. process CPU read where thread CPU was meant
    assert doubled.max_cpu_share() > layers.MAX_SPAN_CPU_SHARE
    assert doubled.min_self_cpu() < 0  # the child now outweighs its parent
    metrics = _harness_metrics(account({1: 0.3}, {1: 1.0}, 1.0))
    metrics["harness.server_max_span_cpu_share"] = doubled.max_cpu_share()
    metrics["harness.driver_min_self_cpu_us"] = doubled.min_self_cpu() * 1e6
    assert len(layers.trace_invalid_reasons(metrics)) == 2


def _harness_metrics(acc):
    """Both sides' check metrics for one :func:`account` result and sound spans."""
    metrics = {}
    for side in ("server", "driver"):
        metrics[f"harness.{side}_min_thread_remainder_ms"] = acc["min_thread_remainder"] * 1e3
        metrics[f"harness.{side}_accounting_error_pct"] = acc["error"] * 100.0
        metrics[f"harness.{side}_max_span_cpu_share"] = 0.99
        metrics[f"harness.{side}_min_self_cpu_us"] = 0.5
    return metrics


def test_accounting_against_measured_cpu_of_this_process():
    from harness import read_thread_cpu

    module = _module()
    tracer = Tracer()
    tracer.wrap(module, "outer", "a:outer")
    tracer.wrap(module, "inner", "b:inner")
    import os

    threads0, cpu0 = read_thread_cpu(os.getpid()), time.process_time()
    for _ in range(10):
        module.outer()
    _burn(0.2)  # unwrapped work lands in the remainder
    threads1, cpu1 = read_thread_cpu(os.getpid()), time.process_time()
    tracer.uninstall()
    spans = SpanSet.of(tracer)
    threads = {t: c - threads0.get(t, 0.0) for t, c in threads1.items()}
    result = account(spans.busy_by_thread(), threads, cpu1 - cpu0)
    assert result["busy"] >= 0.3
    assert result["remainder"] >= 0.15
    assert result["error"] < 0.05  # schedstat of a running thread lags by up to a tick
    assert result["min_thread_remainder"] * 1e3 >= -layers.REMAINDER_SLACK_MS
