"""Command-line interface.

Exposes the library's main entry points without writing Python::

    python -m repro sc document.xml              # print the SC tree
    python -m repro sc page.html --html          # via structure extraction
    python -m repro schedule document.xml --query "mobile web" --lod paragraph
    python -m repro plan --m 40 --alpha 0.3 --success 0.95
    python -m repro transfer document.xml --alpha 0.3 --gamma 1.5 --seed 7
    python -m repro transfer document.xml --trace out.jsonl
    python -m repro obs-summary out.jsonl
    python -m repro figure table1|table2|fig2|...|fig7

Each command imports what it runs, so ``net serve`` loads the serving
stack and nothing else (``tests/test_serve_numpy_free.py`` pins it).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional


def _load_document(path: str, html: bool):
    source = Path(path).read_text(encoding="utf-8")
    if html:
        from repro.htmlkit.extract import html_to_research_paper

        return html_to_research_paper(source)
    from repro.xmlkit.parser import parse_xml

    return parse_xml(source)


def _build_annotated_sc(args):
    from repro.core.information import annotate_sc
    from repro.core.pipeline import SCPipeline
    from repro.core.query import Query
    from repro.text.keywords import KeywordExtractor

    pipeline = SCPipeline()
    document = _load_document(args.path, getattr(args, "html", False))
    sc = pipeline.run(document)
    query = None
    query_text = getattr(args, "query", "") or ""
    if query_text.strip():
        extractor = KeywordExtractor(lemmatizer=pipeline.shared_lemmatizer)
        query = Query(query_text, extractor=extractor)
    annotate_sc(sc, query=query)
    return sc, query


def cmd_sc(args) -> int:
    """Print the structural characteristic as an indented tree."""
    sc, query = _build_annotated_sc(args)
    measure = "mqic" if query is not None and not query.is_empty else "ic"
    print(f"# measure: {measure}")
    for unit in sc.root.walk():
        indent = "  " * unit.lod.value
        title = f" {unit.title!r}" if unit.title else ""
        value = unit.content.get(measure, 0.0)
        print(
            f"{indent}{unit.label:12s} {unit.lod.name.lower():13s} "
            f"{value:8.5f}  {unit.size_bytes():6d}B{title}"
        )
    return 0


def cmd_schedule(args) -> int:
    """Print the transmission schedule at the chosen LOD."""
    from repro.core.lod import LOD
    from repro.core.multires import TransmissionSchedule

    sc, query = _build_annotated_sc(args)
    measure = args.measure
    if measure == "auto":
        measure = "mqic" if query is not None and not query.is_empty else "ic"
    schedule = TransmissionSchedule(sc, lod=LOD[args.lod.upper()], measure=measure)
    print(f"# lod: {schedule.lod.name.lower()}  measure: {measure}")
    cumulative = 0.0
    for segment in schedule.segments():
        cumulative += segment.content
        print(
            f"{segment.label:14s} {segment.size:6d}B  "
            f"content={segment.content:8.5f}  cumulative={cumulative:8.5f}"
        )
    return 0


def cmd_plan(args) -> int:
    """Solve for the minimal cooked-packet count."""
    from repro.analysis.planner import minimal_cooked_packets

    n = minimal_cooked_packets(args.m, args.alpha, args.success)
    print(f"M={args.m} alpha={args.alpha:g} S={args.success:g}")
    print(f"N={n}  gamma={n / args.m:.3f}  expected packets={args.m / (1 - args.alpha):.1f}")
    return 0


def cmd_transfer(args) -> int:
    """Simulate one fault-tolerant transfer of a document file."""
    import random

    from repro import obs
    from repro.coding.backend import get_backend
    from repro.prep import PreparationService, TransferSettings
    from repro.transport.cache import PacketCache
    from repro.transport.channel import ModelChannel, WirelessChannel
    from repro.transport.session import transfer_document

    tracing = bool(getattr(args, "trace", None))
    if tracing:
        obs.enable()
        obs.OBS.trace.emit(
            "run_config",
            seed=args.seed,
            alpha=args.alpha,
            chaos_model=args.chaos_model,
            gamma=args.gamma,
            bandwidth=args.bandwidth,
            packet_size=args.packet_size,
            lod=args.lod,
            cache=bool(args.cache),
            stop_at=args.stop_at,
            coding_backend=get_backend().name,
        )
    try:
        service = PreparationService()
        document_id = service.add_path(Path(args.path), html=args.html)
        prepared = service.prepare(document_id, _document_request(args))
        if args.chaos_model:
            from repro.channel import parse_model_spec

            # --chaos-model replaces the i.i.d. --alpha channel: the
            # model owns the fault schedule (seeded by --seed) while a
            # separate RNG keeps garbling layer-independent.
            channel = ModelChannel(
                parse_model_spec(args.chaos_model, seed=args.seed),
                bandwidth_kbps=args.bandwidth,
                rng=random.Random(args.seed + 1),
            )
        else:
            channel = WirelessChannel(
                bandwidth_kbps=args.bandwidth,
                alpha=args.alpha,
                rng=random.Random(args.seed),
            )
        cache = PacketCache() if args.cache else None
        result = transfer_document(
            prepared,
            channel,
            cache=cache,
            settings=TransferSettings(
                relevance_threshold=args.stop_at,
                max_rounds=args.max_rounds,
            ),
        )
        if tracing:
            obs.OBS.trace.emit(
                "metrics_snapshot",
                metrics=obs.OBS.metrics.snapshot(),
                prep=dict(service.stats),
            )
            try:
                lines = obs.OBS.trace.export_jsonl(args.trace)
            except OSError as exc:
                print(f"error: cannot write trace: {exc}")
                return 2
    finally:
        if tracing:
            obs.disable(reset=True)
    status = "early-stop" if result.terminated_early else ("ok" if result.success else "FAILED")
    print(
        f"{status}: {result.response_time:.2f}s, {result.rounds} round(s), "
        f"{result.frames_sent} frames (M={prepared.m}, N={prepared.n}), "
        f"content={result.content_received:.3f}, seed={args.seed}"
    )
    if tracing:
        print(f"trace: {lines} events -> {args.trace}")
    return 0 if result.success else 1


def _document_request(args) -> PrepRequest:
    """The :class:`PrepRequest` the document flags describe.

    ``transfer`` cooks with it; ``net serve`` makes it the default for
    clients that send no ``prep`` parameters.
    """
    from repro.prep.request import PrepRequest

    return PrepRequest(
        lod=args.lod,
        query=args.query,
        packet_size=args.packet_size,
        gamma=args.gamma,
    )


def _serve_config(args):
    """The one :class:`~repro.net.workers.WorkerConfig` of ``net serve``.

    Nothing is cooked until the first fetch unless ``--warmup`` cooks
    every document with the default request at start-up.
    """
    from repro.net.workers import HAVE_REUSE_PORT, WorkerConfig

    mib = 1024 * 1024
    return WorkerConfig(
        host=args.host,
        port=args.port,
        paths=tuple(str(path) for path in args.paths),
        html=args.html,
        default_request=_document_request(args),
        sc_budget_bytes=args.sc_budget_mb * mib,
        cooked_budget_bytes=args.cooked_budget_mb * mib,
        disk_root=args.disk_cache,
        disk_budget_bytes=args.disk_budget_mb * mib if args.disk_budget_mb else None,
        warmup=args.warmup,
        max_rounds=args.max_rounds,
        round_timeout=args.round_timeout,
        adaptive_gamma=args.adaptive_gamma,
        gamma_floor=args.gamma_floor,
        gamma_ceiling=args.gamma_ceiling,
        # A lone server binds its port exclusively; only the workers
        # of a pool share one.
        reuse_port=HAVE_REUSE_PORT and args.workers > 1,
    )


def _broker_store(args):
    """``--via-broker``: every fetch is one invocation of the prototype ORB."""
    from repro.prototype.broker import ObjectRequestBroker
    from repro.prototype.netmode import BrokerDocumentStore
    from repro.prototype.server import DatabaseGateway, DocumentTransmitterService

    gateway = DatabaseGateway()
    for path in args.paths:
        document_id = Path(path).stem
        gateway.put(document_id, Path(path).read_text(encoding="utf-8"))
        print(f"serving {document_id!r} from {path} (via broker)")
    broker = ObjectRequestBroker()
    broker.register(
        "transmitter",
        DocumentTransmitterService(gateway, packet_size=args.packet_size),
    )
    return BrokerDocumentStore(broker, request=_document_request(args))


async def _until_stopped(args, snapshot, banner: List[str]) -> None:
    """Print *banner* and serve ``--metrics-port`` until SIGINT or SIGTERM.

    The handlers go in before the banner's "listening on" line, so a
    signal sent as soon as that line shows drains instead of killing."""
    import asyncio
    import signal

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, ValueError):
            pass
    print("\n".join(banner))
    metrics_http = None
    if args.metrics_port is not None:
        from repro.net.stats_http import StatsHTTP

        metrics_http = StatsHTTP(snapshot, args.host, args.metrics_port)
        await metrics_http.start()
        print(
            f"metrics on http://{metrics_http.host}:{metrics_http.port}"
            "/metrics (also /stats.json, /healthz)"
        )
    try:
        await stop.wait()
    finally:
        if metrics_http is not None:
            await metrics_http.stop()


def _serve_workers(args) -> int:
    """Multi-process serving: N workers over one port + shared disk tier.

    The ``--warmup`` fix lives here: the parent cooks every document
    into the **shared disk tier once, before any worker exists** —
    each worker then serves its first request as a disk hit instead of
    re-running the pipeline N times (the prep ``cooked_misses`` count
    stays 1 cluster-wide however many workers fork).
    """
    import asyncio
    import tempfile
    from dataclasses import replace

    from repro.net.workers import WorkerPool, build_worker_service, merge_snapshots

    config = _serve_config(args)
    if config.disk_root is None:
        # Workers without a shared tier would each cook their own copy
        # of everything; an ephemeral root restores sharing.
        config = replace(config, disk_root=tempfile.mkdtemp(prefix="repro-net-cache-"))
        print(f"no --disk-cache given; using ephemeral {config.disk_root}")
    if config.warmup:
        service = build_worker_service(config)
        print(f"warmed {len(service)} document(s) into the shared disk tier")
    # Cooked once above, served from disk below.
    pool = WorkerPool(replace(config, warmup=False), args.workers)
    pool.start()
    mode = "SO_REUSEPORT" if pool.config.reuse_port else "shared listener"
    banner = [
        f"listening on {pool.host}:{pool.port} with {args.workers} "
        f"worker(s) via {mode} (ctrl-c to stop)",
        *(f"serving {Path(path).stem!r} from {path}" for path in args.paths),
    ]
    try:
        asyncio.run(
            _until_stopped(args, lambda: pool.stats_snapshot(timeout=2.0), banner)
        )
    except KeyboardInterrupt:
        pass
    # Drain fan-out: every worker finishes in-flight transfers within
    # the round timeout, reports a final snapshot, and exits.
    finals = [s for s in pool.stop(drain_timeout=args.round_timeout) if s is not None]
    totals = merge_snapshots(finals)["server"]
    print(
        f"served {totals.get('completed', 0)} transfer(s), "
        f"{totals.get('frames_sent', 0)} frame(s) across "
        f"{len(finals)}/{args.workers} worker(s)"
    )
    return 0


def cmd_net_serve(args) -> int:
    """Serve cooked documents over TCP until interrupted."""
    import asyncio

    from repro.net.workers import build_server, build_worker_service

    if args.carousel and args.via_broker:
        print("error: --carousel is not supported with --via-broker")
        return 2
    if args.workers > 1:
        if args.via_broker:
            print("error: --workers is not supported with --via-broker")
            return 2
        if args.carousel:
            # Each worker would air its own independent stream; one
            # shared carousel across processes needs a shared medium.
            print("error: --carousel is not supported with --workers > 1")
            return 2
        return _serve_workers(args)

    async def _serve() -> int:
        config = _serve_config(args)
        carousel = None
        if args.via_broker:
            store = _broker_store(args)
        else:
            store = build_worker_service(config)
            for path in config.paths:
                print(f"serving {Path(path).stem!r} from {path}")
            if config.warmup:
                print(f"warmed up {len(store)} document(s) with the default request")
            if args.carousel:
                from repro.broadcast import CarouselScheduler

                carousel = CarouselScheduler.from_service(
                    store,
                    schedule=args.carousel_schedule,
                    max_repeats=args.carousel_max_repeats,
                    limit=args.carousel_limit,
                )
                print(
                    f"carousel on: {len(carousel.documents)} document(s), "
                    f"{carousel.period_slots} slot(s)/cycle "
                    f"({args.carousel_schedule})"
                )
        server = build_server(config, store, carousel=carousel)
        await server.start()
        if config.adaptive_gamma:
            print(
                f"adaptive gamma on "
                f"(floor={config.gamma_floor:g} ceiling={config.gamma_ceiling:g})"
            )
        try:
            await _until_stopped(
                args,
                server.stats_snapshot,
                [f"listening on {server.host}:{server.port} (ctrl-c to stop)"],
            )
        finally:
            await server.stop()
            stats = server.stats
            print(
                f"served {stats['completed']} transfer(s), "
                f"{stats['rounds_served']} round(s), "
                f"{stats['frames_sent']} frame(s)"
            )
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        return 0


def _client_prep_request(args) -> Optional[PrepRequest]:
    """Per-fetch preparation parameters, or None when none were given.

    ``None`` keeps the ``prep`` field off the wire entirely, so the
    server cooks with *its* configured default — the right behaviour
    for clients that don't care.
    """
    from repro.prep.request import PrepRequest

    supplied = {
        name: value
        for name, value in (
            ("query", args.query),
            ("lod", args.lod),
            ("measure", args.measure),
            ("gamma", args.gamma),
            ("packet_size", args.prep_packet_size),
            ("delivery", getattr(args, "delivery", None)),
        )
        if value is not None
    }
    return PrepRequest(**supplied) if supplied else None


def _client_settings(args) -> TransferSettings:
    from repro.prep.request import TransferSettings

    return TransferSettings(
        relevance_threshold=args.stop_at,
        max_rounds=args.max_rounds,
        round_timeout=args.round_timeout,
        max_reconnects=args.max_reconnects,
    )


def cmd_net_fetch(args) -> int:
    """Fetch one document from a running net server."""
    import asyncio

    from repro.net import ConnectionLost, NetClient, WireError
    from repro.transport.cache import PacketCache

    client = NetClient(
        args.host,
        args.port,
        cache=PacketCache() if args.cache else None,
        settings=_client_settings(args),
        request=_client_prep_request(args),
    )
    try:
        result = asyncio.run(client.fetch(args.document_id))
    except (ConnectionLost, WireError, OSError) as exc:
        print(f"error: {exc}")
        return 2
    status = (
        "early-stop" if result.terminated_early
        else ("ok" if result.success else "FAILED")
    )
    size = len(result.payload) if result.payload is not None else 0
    print(
        f"{status}: {result.document_id} in {result.elapsed:.3f}s, "
        f"{result.rounds} round(s), {result.frames_received} frame(s), "
        f"{result.reconnects} reconnect(s), "
        f"content={result.content_received:.3f}, {size} byte(s)"
    )
    if args.out and result.payload is not None:
        Path(args.out).write_bytes(result.payload)
        print(f"wrote {size} byte(s) -> {args.out}")
    return 0 if result.success else 1


def cmd_net_loadgen(args) -> int:
    """Fan out concurrent fetches, optionally through a chaos proxy."""
    import asyncio

    from repro.net import ChaosProxy, run_loadgen, write_bench

    chaos_params = None

    async def _run():
        nonlocal chaos_params
        proxy = None
        host, port = args.host, args.port
        if args.chaos_model:
            from repro.channel import parse_model_spec

            try:
                model = parse_model_spec(args.chaos_model, seed=args.seed)
            except (ValueError, OSError) as exc:
                raise SystemExit(f"error: bad --chaos-model: {exc}")
            proxy = ChaosProxy(args.host, args.port, model=model)
            await proxy.start()
            host, port = proxy.host, proxy.port
            chaos_params = {"model": args.chaos_model, "seed": args.seed}
            print(
                f"chaos proxy on {host}:{port} "
                f"(model={args.chaos_model} seed={args.seed})"
            )
        try:
            if getattr(args, "processes", 1) > 1:
                # Multi-process drivers: the blocking fan-out runs in
                # an executor thread so a chaos proxy on this loop
                # keeps relaying while the client fleet hammers it.
                from functools import partial

                from repro.net import run_loadgen_mp

                loop = asyncio.get_running_loop()
                report, _results = await loop.run_in_executor(
                    None,
                    partial(
                        run_loadgen_mp,
                        host,
                        port,
                        args.document_id,
                        clients=args.clients,
                        processes=args.processes,
                        use_cache=args.cache,
                        settings=_client_settings(args),
                        request=_client_prep_request(args),
                        error_budget=args.error_budget,
                    ),
                )
            else:
                report, _results = await run_loadgen(
                    host,
                    port,
                    args.document_id,
                    clients=args.clients,
                    use_cache=args.cache,
                    settings=_client_settings(args),
                    request=_client_prep_request(args),
                    error_budget=args.error_budget,
                )
        finally:
            if proxy is not None:
                await proxy.stop()
                print(f"proxy stats: {proxy.stats}")
        return report

    report = asyncio.run(_run())
    print(
        f"{report.succeeded}/{report.clients} succeeded "
        f"({report.decoded} decoded, {report.early_stopped} early-stop, "
        f"{report.failed} failed), {report.reconnects} reconnect(s)"
    )
    print(
        f"latency: mean={report.mean_seconds:.3f}s p50={report.p50_seconds:.3f}s "
        f"p95={report.p95_seconds:.3f}s p99={report.p99_seconds:.3f}s"
    )
    print(
        f"throughput: {report.fetches_per_second:.1f} fetches/s, "
        f"{report.payload_bytes} payload byte(s) "
        f"({report.served_mb_per_second:.3f} MB/s) in {report.elapsed:.3f}s"
    )
    print(
        f"slo: error_rate={report.error_rate:.3f} "
        f"budget={report.error_budget:g} "
        f"remaining={report.error_budget_remaining:.1%}"
    )
    if args.bench:
        write_bench(
            report,
            args.bench,
            document_id=args.document_id,
            chaos=chaos_params,
            label=args.bench_label,
            append_row=args.bench_append,
        )
        mode = "row appended" if args.bench_append else "record"
        print(f"bench {mode} -> {args.bench}")
    return 0 if report.error_budget_remaining > 0 else 1


def _prep_evictions(snapshot) -> int:
    """Memory-tier evictions: the ``prep_cache`` tiers' counts, summed
    over each worker of a fleet snapshot."""
    return sum(
        tier.get("evictions", 0)
        for part in snapshot.get("workers") or [snapshot]
        for tier in part.get("prep_cache", {}).values()
        if isinstance(tier, dict)
    )


def cmd_net_stats(args) -> int:
    """Query a running server's operational snapshot (STATS frame)."""
    import asyncio
    import json

    from repro.net import ConnectionLost, WireError, fetch_stats

    try:
        snapshot = asyncio.run(fetch_stats(args.host, args.port))
    except (ConnectionLost, WireError, OSError) as exc:
        print(f"error: {exc}")
        return 2
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    server = snapshot.get("server", {})
    print(
        f"connections={server.get('connections', 0)} "
        f"active={snapshot.get('active_connections', 0)} "
        f"completed={server.get('completed', 0)} "
        f"rounds={server.get('rounds_served', 0)} "
        f"frames={server.get('frames_sent', 0)} "
        f"flight_dumps={server.get('flight_dumps', 0)}"
    )
    slo = snapshot.get("slo", {})
    if slo:
        print(
            f"slo: count={slo.get('count', 0)} "
            f"p50={slo.get('p50_seconds', 0):.3f}s "
            f"p95={slo.get('p95_seconds', 0):.3f}s "
            f"p99={slo.get('p99_seconds', 0):.3f}s "
            f"error_rate={slo.get('error_rate', 0):.3f} "
            f"budget_remaining={slo.get('error_budget_remaining', 1.0):.1%}"
        )
    prep = snapshot.get("prep")
    if prep:
        print(
            f"prep: sc {prep.get('sc_hits', 0)}/{prep.get('sc_misses', 0)} "
            f"hit/miss, cooked {prep.get('cooked_hits', 0)}"
            f"/{prep.get('cooked_misses', 0)} hit/miss, "
            f"{_prep_evictions(snapshot)} eviction(s)"
        )
    for conn in snapshot.get("connections", []):
        print(
            f"  conn {conn.get('conn_id')}: {conn.get('document')!r} "
            f"transfer={conn.get('transfer_id')} rounds={conn.get('rounds')} "
            f"sendq={conn.get('sendq_depth')} age={conn.get('age_seconds'):.1f}s"
        )
    return 0


def cmd_obs_summary(args) -> int:
    """Summarize a telemetry JSONL trace (timeline + histogram table)."""
    from repro.obs.summary import print_summary

    try:
        return print_summary(args.path)
    except BrokenPipeError:
        # Reader (e.g. ``| head``) closed stdout: not an error.  Point
        # stdout at devnull so the interpreter's final flush is quiet.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 2


def cmd_figure(args) -> int:
    """Reproduce a paper artifact (see repro.figures)."""
    import repro.figures as figures
    from repro.simulation.parallel import resolve_jobs
    from repro.simulation.parameters import from_environment

    jobs = resolve_jobs(args.jobs)
    printers = {
        "table1": figures.print_table1,
        "table2": figures.print_table2,
        "fig2": figures.print_figure2,
        "fig3": figures.print_figure3,
        "fig4": lambda: figures.print_figure4(from_environment(), jobs=jobs),
        "fig5": lambda: figures.print_figure5(from_environment(), jobs=jobs),
        "fig6": lambda: figures.print_figure6(from_environment(), jobs=jobs),
        "fig7": lambda: figures.print_figure7(from_environment(), jobs=jobs),
    }
    if args.artifact == "list":
        for name in sorted(printers):
            print(name)
        return 0
    printer = printers.get(args.artifact)
    if printer is None:
        print(f"unknown artifact {args.artifact!r}; choose from {sorted(printers)}")
        return 2
    printer()
    return 0


#: ``--chaos-model`` help shared by ``transfer`` and ``net loadgen``.
CHAOS_MODEL_HELP = (
    "channel model: iid:drop=0.1,corrupt=0.2 | gilbert:alpha=0.2,burst=5 | "
    "trace:FILE.json (seeded by --seed)"
)


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__
    from repro.core.lod import LOD
    from repro.prep.request import KNOWN_MEASURES, DeliveryMode
    from repro.protocol.engine import DEFAULT_MAX_ROUNDS, DEFAULT_ROUND_TIMEOUT

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-tolerant multi-resolution web transmission (ICDCS 2000 reproduction)",
    )

    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sc = sub.add_parser("sc", help="print a document's structural characteristic")
    p_sc.add_argument("path")
    p_sc.add_argument("--html", action="store_true", help="treat input as HTML")
    p_sc.add_argument("--query", default="", help="query for QIC/MQIC annotation")
    p_sc.set_defaults(func=cmd_sc)

    p_sched = sub.add_parser("schedule", help="print a transmission schedule")
    p_sched.add_argument("path")
    p_sched.add_argument("--html", action="store_true")
    p_sched.add_argument("--query", default="")
    p_sched.add_argument(
        "--lod",
        default="paragraph",
        choices=[lod.name.lower() for lod in LOD],
    )
    p_sched.add_argument(
        "--measure",
        default="auto",
        help="content measure key (auto = mqic with a query, else ic)",
    )
    p_sched.set_defaults(func=cmd_schedule)

    p_plan = sub.add_parser("plan", help="minimal cooked packets for (M, alpha, S)")
    p_plan.add_argument("--m", type=int, required=True)
    p_plan.add_argument("--alpha", type=float, required=True)
    p_plan.add_argument("--success", type=float, default=0.95)
    p_plan.set_defaults(func=cmd_plan)

    def add_document_flags(p) -> None:
        """How a document is prepared: ``transfer`` and ``net serve``.

        The flags build :func:`_document_request` plus the round bound.
        """
        p.add_argument("--html", action="store_true", help="treat input as HTML")
        p.add_argument("--query", default="", help="query for MQIC ordering")
        p.add_argument("--lod", default="paragraph",
                       choices=[lod.name.lower() for lod in LOD])
        p.add_argument("--gamma", type=float, default=1.5)
        p.add_argument("--packet-size", type=int, default=256)
        p.add_argument("--max-rounds", type=int, default=DEFAULT_MAX_ROUNDS,
                       metavar="N",
                       help="retransmission-round bound before giving up "
                            f"(default: {DEFAULT_MAX_ROUNDS})")

    def add_stop_at_flag(p) -> None:
        """The early-termination threshold: ``transfer`` and the clients."""
        p.add_argument("--stop-at", type=float, default=None,
                       help="relevance threshold F for early termination")

    p_xfer = sub.add_parser("transfer", help="simulate one document transfer")
    p_xfer.add_argument("path")
    add_document_flags(p_xfer)
    p_xfer.add_argument("--alpha", type=float, default=0.1,
                        help="i.i.d. frame-loss rate (replaced by --chaos-model)")
    p_xfer.add_argument("--bandwidth", type=float, default=19.2)
    p_xfer.add_argument("--seed", type=int, default=0)
    p_xfer.add_argument("--cache", action="store_true", help="enable the packet cache")
    add_stop_at_flag(p_xfer)
    p_xfer.add_argument("--trace", default=None, metavar="PATH",
                        help="record a telemetry trace to PATH (JSON Lines)")
    p_xfer.add_argument("--chaos-model", default=None, metavar="SPEC",
                        help=CHAOS_MODEL_HELP)
    p_xfer.set_defaults(func=cmd_transfer)

    p_fig = sub.add_parser("figure", help="reproduce a paper table/figure")
    p_fig.add_argument("artifact")
    p_fig.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for simulation sweeps "
        "(0 = cpu count; default: $REPRO_JOBS, else 1)",
    )
    p_fig.set_defaults(func=cmd_figure)

    p_net = sub.add_parser("net", help="run the §4.2 protocol over real sockets")
    net_sub = p_net.add_subparsers(dest="net_command", required=True)

    p_serve = net_sub.add_parser("serve", help="serve cooked documents over TCP")
    p_serve.add_argument("paths", nargs="+", help="XML document file(s) to serve")
    add_document_flags(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="listen port (0 picks a free port)")
    p_serve.add_argument("--round-timeout", type=float,
                         default=DEFAULT_ROUND_TIMEOUT, metavar="SECONDS")
    p_serve.add_argument("--via-broker", action="store_true",
                         help="route each fetch through the prototype ORB "
                              "(interceptors see networked requests)")
    p_serve.add_argument("--warmup", action="store_true",
                         help="cook every document with the default request "
                              "before accepting connections")
    p_serve.add_argument("--sc-budget-mb", type=int, default=64,
                         help="byte budget for the SC cache tier (MiB): "
                              "bounds the memory of the cached structural "
                              "characteristics (unit trees, keyword counts, "
                              "payloads); per-cook annotation is not kept")
    p_serve.add_argument("--cooked-budget-mb", type=int, default=256,
                         help="byte budget for the cooked cache tier (MiB)")
    p_serve.add_argument("--adaptive-gamma", action="store_true",
                         help="adapt per-client redundancy to the observed "
                              "loss rate (EWMA) instead of a fixed gamma")
    p_serve.add_argument("--gamma-floor", type=float, default=1.0,
                         help="lower bound for the adaptive gamma (default: 1.0)")
    p_serve.add_argument("--gamma-ceiling", type=float, default=3.0,
                         help="upper bound for the adaptive gamma (default: 3.0)")
    p_serve.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                         help="serve /metrics (Prometheus text), /stats.json, "
                              "and /healthz on this HTTP port (0 picks one)")
    p_serve.add_argument("--workers", type=int, default=1, metavar="N",
                         help="serving processes sharing the port via "
                              "SO_REUSEPORT (fallback: one shared listener); "
                              "each runs its own event loop (default: 1)")
    p_serve.add_argument("--disk-cache", default=None, metavar="DIR",
                         help="persistent cooked-bundle cache root shared by "
                              "all workers and across restarts (multi-worker "
                              "default: an ephemeral directory)")
    p_serve.add_argument("--disk-budget-mb", type=int, default=None,
                         help="soft byte budget for the disk cache (MiB; "
                              "default: unbounded)")
    p_serve.add_argument("--carousel", action="store_true",
                         help="air a broadcast carousel of the served "
                              "documents next to unicast serving; clients "
                              "subscribe with --delivery carousel")
    p_serve.add_argument("--carousel-schedule", default="flat",
                         choices=["flat", "skewed"],
                         help="flat: every document once per cycle; skewed: "
                              "broadcast-disk repeats by sqrt(demand)")
    p_serve.add_argument("--carousel-limit", type=int, default=16,
                         metavar="N",
                         help="hottest documents put on air (default: 16)")
    p_serve.add_argument("--carousel-max-repeats", type=int, default=8,
                         metavar="N",
                         help="per-document appearance ceiling per cycle "
                              "under the skewed schedule (default: 8)")
    p_serve.set_defaults(func=cmd_net_serve)

    def add_settings_flags(p) -> None:
        """Client-side TransferSettings knobs (see _client_settings)."""
        p.add_argument("--no-cache", dest="cache", action="store_false",
                       help="disable the §4.2 packet cache (no resume)")
        add_stop_at_flag(p)
        p.add_argument("--max-rounds", type=int, default=DEFAULT_MAX_ROUNDS)
        p.add_argument("--round-timeout", type=float,
                       default=DEFAULT_ROUND_TIMEOUT, metavar="SECONDS")
        p.add_argument("--max-reconnects", type=int, default=4)

    def add_prep_flags(p) -> None:
        """Per-request preparation parameters (unset → server default)."""
        p.add_argument("--query", default=None,
                       help="query for QIC/MQIC ordering of this fetch")
        p.add_argument("--lod", default=None,
                       choices=[lod.name.lower() for lod in LOD],
                       help="level of detail for this fetch")
        p.add_argument("--measure", default=None,
                       choices=sorted(KNOWN_MEASURES),
                       help="content measure (default: auto)")
        p.add_argument("--gamma", type=float, default=None,
                       help="redundancy ratio for this fetch")
        p.add_argument("--prep-packet-size", type=int, default=None,
                       help="packet size the server should cook with")
        p.add_argument("--delivery", default=None,
                       choices=[mode.value for mode in DeliveryMode],
                       help="delivery mode: per-client unicast rounds "
                            "(default) or the server's shared broadcast "
                            "carousel")

    p_fetch = net_sub.add_parser("fetch", help="fetch one document from a server")
    p_fetch.add_argument("document_id")
    p_fetch.add_argument("--host", default="127.0.0.1")
    p_fetch.add_argument("--port", type=int, default=8642)
    p_fetch.add_argument("--out", default=None, metavar="PATH",
                         help="write the reconstructed document to PATH")
    add_settings_flags(p_fetch)
    add_prep_flags(p_fetch)
    p_fetch.set_defaults(func=cmd_net_fetch)

    p_load = net_sub.add_parser(
        "loadgen", help="fan out concurrent fetches, optionally through chaos"
    )
    p_load.add_argument("document_id")
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, default=8642)
    p_load.add_argument("--clients", type=int, default=50)
    p_load.add_argument("--processes", type=int, default=1, metavar="N",
                        help="client driver processes; splits --clients "
                             "across N processes so client-side CPU stops "
                             "capping the measured rate (default: 1)")
    p_load.add_argument("--chaos-model", default=None, metavar="SPEC",
                        help=CHAOS_MODEL_HELP)
    p_load.add_argument("--seed", type=int, default=0,
                        help="chaos channel-model seed")
    p_load.add_argument("--error-budget", type=float, default=0.05,
                        metavar="RATE",
                        help="tolerated error rate; exit 1 once the budget "
                             "is exhausted (default: 0.05)")
    p_load.add_argument("--bench", default=None, metavar="PATH",
                        help="write the SLO benchmark record (BENCH_net.json "
                             "format) to PATH")
    p_load.add_argument("--bench-label", default=None, metavar="NAME",
                        help="label this run variant in the bench record "
                             "(e.g. bursty-adaptive)")
    p_load.add_argument("--bench-append", action="store_true",
                        help="append the record to the bench file's rows "
                             "list instead of replacing the file (A/B legs)")
    add_settings_flags(p_load)
    add_prep_flags(p_load)
    p_load.set_defaults(func=cmd_net_loadgen)

    p_stats = net_sub.add_parser(
        "stats", help="query a running server's operational snapshot"
    )
    p_stats.add_argument("--host", default="127.0.0.1")
    p_stats.add_argument("--port", type=int, default=8642)
    p_stats.add_argument("--json", action="store_true",
                         help="print the raw snapshot as JSON")
    p_stats.set_defaults(func=cmd_net_stats)

    p_obs = sub.add_parser(
        "obs-summary",
        help="print the per-transfer timeline and metrics of a JSONL trace",
    )
    p_obs.add_argument("path")
    p_obs.set_defaults(func=cmd_obs_summary)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
