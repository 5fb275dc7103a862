"""Two-process serve benchmark: one command, four workloads, traced layers.

Run from the root of a checkout::

    python benchmarks/perf/run.py                      # all workloads, untraced + traced
    python benchmarks/perf/run.py --workload hot-paper --seed 3 --trace 0
    python benchmarks/perf/run.py --repeat 3 --out A.json
    python benchmarks/perf/run.py compare A.json B.json

Each run launches ``python -m repro net serve <docs> --port 0 --warmup``
pinned to one allowed CPU (five times, one after another, for the
median ``setup_s``; the last one serves) and drives it from this
process pinned to another CPU, through the public ``NetClient``.  A run
is a 3 s unrecorded warm-up and a recorded window of BENCHMARK.json's
``run_seconds``; ``--trace 1`` adds a second server launched through
``serve_traced.py`` and a traced window for the per-layer metrics.
Every metric is printed by name with its unit; the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  Any payload that does not hash to its
in-process reference makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORK = ROOT / ".bench_build" / "perf"

WARMUP_S = 3.0
SETUP_LAUNCHES = 5
QUICK_SECONDS, QUICK_WARMUP_S = 2.0, 0.5


def load_config() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def bootstrap() -> None:
    """Make the checkout's sources importable and build what runs need.

    Byte-compiling and the native GF(256) kernel are built here, before
    any timing, so the first server launch does not pay for them.
    """
    sys.path.insert(0, str(ROOT / "src"))
    # Children inherit both: compiler and tempfile temporaries stay in the checkout.
    os.environ["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    os.environ["TMPDIR"] = str(WORK / "tmp")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    import compileall

    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(Path(__file__).resolve().parent), quiet=1, maxlevels=0)
    from repro.coding import _native

    _native.load()


# -- one run -------------------------------------------------------------------


async def session(workload, inputs, seed, warmup, seconds, *, cpu, clients, launches,
                  tracer=None, spans_path=None):
    """Launch, warm up and record one window; returns (window, setup, rss).

    The server is launched *launches* times, one after another; the last
    one serves the window and *setup* holds each launch's seconds.
    """
    import harness
    import layers

    server = proxy = None
    setup = []
    try:
        for _ in range(launches):
            if server is not None:
                server.stop()
            server = harness.ServerProcess(inputs, cpu, spans_path)
            setup.append(server.start())
        port = server.port
        if workload.chaos:
            from repro.channel import parse_model_spec
            from repro.net import ChaosProxy

            proxy = ChaosProxy("127.0.0.1", server.port,
                               model=parse_model_spec(workload.chaos, seed=seed))
            await proxy.start()
            port = proxy.port
        if tracer is not None:
            layers.install_driver(tracer, port, type(proxy.model) if proxy else None)
        load = harness.Load(workload, inputs, "127.0.0.1", port, clients)
        await load.phase(0.0, warmup)
        window = await harness.record_window(load, server, warmup, seconds, proxy)
        rss = server.peak_rss_mb()
    finally:
        if tracer is not None:
            tracer.uninstall()
        if proxy is not None:
            await proxy.stop()
        if server is not None:
            server.stop()
    return window, setup, rss


def run_one(name, seed, *, seconds, warmup, launches, traced, cpus, tightest_bound):
    """One workload × seed: untraced window, then optionally a traced one."""
    import asyncio

    import harness
    import layers
    from spans import SpanSet, Tracer
    from workloads import WORKLOADS, build_inputs

    workload = WORKLOADS[name]
    inputs = build_inputs(workload, seed, (warmup, seconds), WORK)
    clients = len(harness.ALLOWED_CPUS)
    common = dict(cpu=cpus[0], clients=clients)
    calibration = [harness.calibration_ms()]
    window, setup, rss = asyncio.run(
        session(workload, inputs, seed, warmup, seconds, launches=launches, **common))
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "warmup": warmup,
        "loop": "closed" if workload.closed else "open",
        "clients": clients if workload.closed else None,
        "rate": workload.rate or None,
        "setup_launches_s": setup,
        "metrics": harness.end_to_end(window, rss, setup),
        "mismatches": sum(1 for s in window.samples if s.outcome == "mismatch"),
    }
    if traced:
        spans_path = WORK / f"spans-{name}-{seed}.json"
        tracer = Tracer()
        traced_window, _, _ = asyncio.run(session(
            workload, inputs, seed, warmup, seconds, launches=1,
            tracer=tracer, spans_path=spans_path, **common))
        record["traced_attempted"] = len(traced_window.samples)
        record["traced_failed"] = len(traced_window.samples) - traced_window.completed
        record["mismatches"] += sum(1 for s in traced_window.samples if s.outcome == "mismatch")
    calibration.append(harness.calibration_ms())
    record.update(harness.diagnostics(
        window, workload.closed, tuple(calibration), tightest_bound, cpus[0] is None))
    if traced:
        server_spans = SpanSet.load(str(spans_path))
        spans_path.unlink()
        record["layers"], record["layer_table"] = layers.layer_metrics(
            traced_window, window, server_spans, SpanSet.of(tracer),
            lag_p99_ms=record["lag_p99_ms"],
            calibration_drift_pct=record["calibration_drift_pct"],
        )
        record["trace_invalid_reasons"] = layers.trace_invalid_reasons(record["layers"])
        record["invalid_reasons"] += record["trace_invalid_reasons"]
        record["valid"] = not record["invalid_reasons"]
    return record


# -- printing ------------------------------------------------------------------


def print_run(record, config) -> None:
    import harness

    loop = (f"closed loop, {record['clients']} clients" if record["loop"] == "closed"
            else f"open loop, {record['rate']:g} fetches/s")
    print(f"== {record['workload']} seed={record['seed']} ({loop}, {record['seconds']:g} s window)")
    for metric in config["end_to_end"]:
        print(f"  {metric['name']:<32} {record['metrics'][metric['name']]:>12.4f} {metric['unit']}")
    print("  -- raw times (not gated: the host's speed moves them; see README)")
    for name, (unit, _, _) in harness.UNGATED.items():
        print(f"  {name:<32} {record['metrics'][name]:>12.4f} {unit}")
    if record["tail_percentile"]:
        print(f"  {'p%g_ms' % record['tail_percentile']:<32} {record['tail_ms']:>12.4f} ms"
              f"  (highest percentile with >=10 of {record['attempted']} samples beyond it)")
    print(f"  {'error_rate':<32} {record['error_rate']:>12.4f} share"
          f"  ({record['failed']} of {record['attempted']} fetches failed)")
    print(f"  {'setup launches':<32} " + " ".join(f"{s:.3f}" for s in record["setup_launches_s"]) + " s")
    print(f"  {'valid':<32} {'yes' if record['valid'] else 'NO: ' + '; '.join(record['invalid_reasons'])}")
    if "layers" in record:
        print(f"  -- traced per-layer metrics ({record['traced_attempted']} fetches)")
        for metric in config["per_layer"]:
            print(f"  {metric['name']:<48} {record['layers'][metric['name']]:>12.4f} {metric['unit']}")
        for side, rows in record["layer_table"].items():
            total = rows["process_cpu"]
            print(f"  -- {side} busy time per fetch (self CPU of wrapped layers)")
            for layer, ms in rows.items():
                if ms == 0.0:  # layers of coroutine spans only: wall time, no CPU
                    continue
                share = f"{ms / total:7.1%}" if layer != "process_cpu" else ""
                print(f"     {layer:<28} {ms:>10.4f} ms {share}")


def result_line(records, sections) -> dict:
    """The final JSON object; metrics are medians over *records*.

    *sections* pairs a record key (``metrics`` or ``layers``) with the
    BENCHMARK.json metric list it reports.
    """
    import perfstats

    single = len({r["workload"] for r in records}) == 1
    metrics = {}
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == workload]
        for key, section in sections:
            for metric in section:
                value = perfstats.percentile([r[key][metric["name"]] for r in runs], 50.0)
                if not math.isfinite(value):
                    raise RuntimeError(f"{workload} {metric['name']} is not finite: {value}")
                name = metric["name"] if single else f"{workload}/{metric['name']}"
                metrics[name] = {"value": value, "unit": metric["unit"]}
    attempted = sum(r["attempted"] + r.get("traced_attempted", 0) for r in records)
    failed = sum(r["failed"] + r.get("traced_failed", 0) for r in records)
    correct = all(r["mismatches"] == 0 for r in records)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


# -- compare -------------------------------------------------------------------


def load_runs(spec: str) -> list:
    """Runs of a results file; ``PATH:KEY`` selects a set inside it."""
    path, _, key = spec.partition(":") if not os.path.exists(spec) else (spec, "", "")
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if key:
        data = data[key]
    return data["runs"]


def compare_main(argv) -> int:
    import harness
    import perfstats

    parser = argparse.ArgumentParser(prog="run.py compare",
                                     description="Verdict per metric x workload: parent A vs change B.")
    parser.add_argument("parent", help="results JSON (PATH or PATH:SET)")
    parser.add_argument("change", help="results JSON (PATH or PATH:SET)")
    args = parser.parse_args(argv)
    config = load_config()
    parent, change = load_runs(args.parent), load_runs(args.change)
    windows = {(r["seconds"], r["warmup"]) for r in parent + change}
    if len(windows) > 1:
        parser.error(f"runs with different (window, warm-up) seconds are not comparable: "
                     f"{sorted(windows)}")
    gated = [(m["name"], m["better"], m["bound"], True) for m in config["end_to_end"]]
    ungated = [(name, better, bound, False) for name, (_, better, bound) in harness.UNGATED.items()]
    counts = {"better": 0, "same": 0, "worse": 0, "unresolved": 0}
    print(f"{'workload':<14} {'metric':<28} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'worse by':>9} {'bound':>6}  verdict")
    for workload in dict.fromkeys(r["workload"] for r in parent):
        a = [r for r in parent if r["workload"] == workload]
        b = [r for r in change if r["workload"] == workload]
        if not b:
            continue
        for name, better, bound, is_gated in gated + ungated:
            v = perfstats.verdict([r["metrics"][name] for r in a], [r["metrics"][name] for r in b],
                                  better=better, bound=bound)
            if is_gated:
                counts[v["verdict"]] += 1
            p, c = v["parent"], v["change"]
            print(f"{workload:<14} {name:<28} {p['median']:>12.4f} [{p['q1']:.4f}, {p['q3']:.4f}]"
                  f" {c['median']:>12.4f} [{c['q1']:.4f}, {c['q3']:.4f}] {v['worse_by']:>+9.2%}"
                  f" {bound:>6.0%}  {v['verdict']}" + ("" if is_gated else " (ungated)")
                  + (f" ({v['wins']}/{v['pairs']} pairs won)" if v["pairs"] >= perfstats.CLAIM_PAIRS else ""))
        errors = perfstats.error_verdict((sum(r["failed"] for r in a), sum(r["attempted"] for r in a)),
                                         (sum(r["failed"] for r in b), sum(r["attempted"] for r in b)))
        counts[errors] += 1
        print(f"{workload:<14} {'error_rate':<28} {'(absolute bound 0)':>30} {'':>30} {'':>9} {'0':>6}  {errors}")
    print("verdicts on BENCHMARK.json metrics and errors: "
          + ", ".join(f"{k} {v}" for k, v in counts.items()))
    return 1 if counts["worse"] else 0


# -- main ----------------------------------------------------------------------


def main(argv) -> int:
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: workloads.DEFAULT_SEED)")
    window = parser.add_mutually_exclusive_group()
    window.add_argument("--seconds", type=float, default=None,
                        help="recorded window per run; part of the calling convention "
                             "(--workload --seed --seconds --trace), which passes "
                             "BENCHMARK.json's run_seconds, the default")
    window.add_argument("--quick", action="store_true", help="2 s windows, one launch: a smoke run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer metrics from a traced "
                             "run (default: 0 with --workload, both without)")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload (seeds seed..seed+K-1)")
    parser.add_argument("--out", default=str(WORK / "results.json"), help="results JSON path")
    args = parser.parse_args(argv)

    # SIGTERM unwinds like ^C, so every child is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    config = load_config()
    bootstrap()
    import harness
    from workloads import DEFAULT_SEED, WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.quick:
        seconds = QUICK_SECONDS
    elif args.seconds is not None:
        seconds = args.seconds
    else:
        seconds = float(config["run_seconds"])
    if not seconds > 0:
        parser.error(f"--seconds must be positive, got {seconds:g}")
    warmup = QUICK_WARMUP_S if args.quick else WARMUP_S
    traced = args.trace == 1 or (args.trace is None and args.workload is None)
    launches = 1 if args.quick or args.trace == 1 else SETUP_LAUNCHES
    cpus = harness.pick_cpus()
    if cpus[1] is not None:
        os.sched_setaffinity(0, {cpus[1]})
    # The calibration probe measures CPU speed: hold it to the raw times' bounds.
    tightest = min(bound for _, _, bound in harness.UNGATED.values())

    host = harness.host_record(*cpus)
    print(f"host: {json.dumps(host)}")
    records = []
    for repeat in range(args.repeat):
        for name in names:
            record = run_one(name, seed + repeat, seconds=seconds, warmup=warmup,
                             launches=launches, traced=traced, cpus=cpus, tightest_bound=tightest)
            print_run(record, config)
            records.append(record)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"host": host, "runs": records}, indent=1) + "\n", encoding="utf-8")
    print(f"results: {out}")
    sections = []
    if args.trace != 1:
        sections.append(("metrics", config["end_to_end"]))
    if traced:
        sections.append(("layers", config["per_layer"]))
    final = result_line(records, sections)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
