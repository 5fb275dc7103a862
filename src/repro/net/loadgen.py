"""Concurrent load generator for the networked §4.2 protocol.

:func:`run_loadgen` fans out N concurrent :class:`NetClient` fetches
of one document — each client with its own packet cache, so every
chaos-induced disconnect exercises reconnect-and-resume — and folds
the outcomes into a :class:`LoadgenReport` with wall-clock latency
percentiles (via :func:`repro.util.stats.percentile`) and effective
throughput.  With telemetry enabled every fetch also lands in the
``net.*`` metric family (``net.fetch_seconds``, ``net.fetches``,
``net.reconnects``), so ``repro obs-summary`` can dissect a run.

The report doubles as an SLO verdict: ``error_rate`` against the run's
``error_budget`` yields ``error_budget_remaining`` (1.0 = untouched,
0.0 = exhausted), and :func:`write_bench` serializes the whole thing
to ``BENCH_net.json`` for CI trend lines.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.net.client import NetClient, NetFetchResult
from repro.net.wire import WireError
from repro.obs.slo import DEFAULT_ERROR_BUDGET
from repro.prep.request import PrepRequest, TransferSettings
from repro.transport.cache import PacketCache
from repro.util.nossl import sha256
from repro.util.stats import mean, percentile


class LoadgenReport(NamedTuple):
    """Aggregate outcome of one load-generation run.

    New fields are appended with defaults so positional construction
    from older call sites keeps working.
    """

    clients: int
    succeeded: int             # decoded or early-stopped
    decoded: int
    early_stopped: int
    failed: int                # Failed verdicts plus unreachable-server errors
    reconnects: int            # total redials across all clients
    elapsed: float             # wall-clock seconds for the whole fan-out
    mean_seconds: float
    p50_seconds: float
    p90_seconds: float
    p99_seconds: float
    fetches_per_second: float
    payload_bytes: int         # total reconstructed bytes across clients
    p95_seconds: float = 0.0
    error_rate: float = 0.0    # failed / clients
    error_budget: float = DEFAULT_ERROR_BUDGET
    error_budget_remaining: float = 1.0   # max(0, 1 - error_rate/budget)
    served_mb_per_second: float = 0.0     # reconstructed payload MB / elapsed


class ClientOutcome(NamedTuple):
    """One client's result, reduced to what aggregation needs.

    The cheap, picklable currency of the multi-process driver: worker
    processes ship these back instead of full
    :class:`~repro.net.client.NetFetchResult` objects (whose payloads
    would serialize megabytes per client).  ``payload_sha256`` keeps
    byte-identity checkable across process boundaries without moving
    the bytes.  Status ``"unreachable"`` marks a client whose
    connection never completed a fetch (the ``None`` result of
    :func:`run_loadgen`).
    """

    status: str
    elapsed: float
    reconnects: int
    payload_bytes: int
    payload_sha256: str = ""


def outcome_of(result: Optional[NetFetchResult]) -> ClientOutcome:
    """Reduce one loadgen result (or ``None``) to a :class:`ClientOutcome`."""
    if result is None:
        return ClientOutcome("unreachable", 0.0, 0, 0)
    payload = result.payload
    return ClientOutcome(
        status=result.status,
        elapsed=result.elapsed,
        reconnects=result.reconnects,
        payload_bytes=len(payload) if payload is not None else 0,
        payload_sha256=(
            sha256(payload).hexdigest() if payload is not None else ""
        ),
    )


def summarize_outcomes(
    outcomes: Sequence[ClientOutcome],
    *,
    clients: int,
    elapsed: float,
    error_budget: float = DEFAULT_ERROR_BUDGET,
) -> LoadgenReport:
    """Fold reduced client outcomes into a :class:`LoadgenReport`.

    The pure core shared by the single-process and multi-process
    drivers; ``"unreachable"`` outcomes are counted as failed and
    excluded from the latency distribution (they never measured a
    fetch).
    """
    if error_budget <= 0:
        raise ValueError(f"error_budget must be positive, got {error_budget}")
    reached = [o for o in outcomes if o.status != "unreachable"]
    latencies = sorted(o.elapsed for o in reached)
    decoded = sum(1 for o in reached if o.status == "decoded")
    early = sum(1 for o in reached if o.status == "early_stop")
    failed = clients - decoded - early
    error_rate = failed / clients if clients else 0.0
    payload_bytes = sum(o.payload_bytes for o in reached)
    return LoadgenReport(
        clients=clients,
        succeeded=decoded + early,
        decoded=decoded,
        early_stopped=early,
        failed=failed,
        reconnects=sum(o.reconnects for o in reached),
        elapsed=elapsed,
        mean_seconds=mean(latencies) if latencies else 0.0,
        p50_seconds=percentile(latencies, 50.0) if latencies else 0.0,
        p90_seconds=percentile(latencies, 90.0) if latencies else 0.0,
        p99_seconds=percentile(latencies, 99.0) if latencies else 0.0,
        fetches_per_second=clients / elapsed if elapsed > 0 else 0.0,
        payload_bytes=payload_bytes,
        p95_seconds=percentile(latencies, 95.0) if latencies else 0.0,
        error_rate=error_rate,
        error_budget=error_budget,
        error_budget_remaining=max(0.0, 1.0 - error_rate / error_budget),
        served_mb_per_second=(
            payload_bytes / (1024 * 1024) / elapsed if elapsed > 0 else 0.0
        ),
    )


def summarize_results(
    results: List[Optional[NetFetchResult]],
    *,
    clients: int,
    elapsed: float,
    error_budget: float = DEFAULT_ERROR_BUDGET,
) -> LoadgenReport:
    """Fold per-client fetch results into a :class:`LoadgenReport`.

    Pure — callable on synthetic results in tests.  ``None`` entries
    are clients that never reached the server (counted as failed).
    Thin shim over :func:`summarize_outcomes`, the reduction shared
    with the multi-process driver.
    """
    return summarize_outcomes(
        [outcome_of(result) for result in results],
        clients=clients,
        elapsed=elapsed,
        error_budget=error_budget,
    )


async def run_loadgen(
    host: str,
    port: int,
    document_id: str,
    *,
    clients: int = 50,
    use_cache: bool = True,
    settings: Optional[TransferSettings] = None,
    request: Optional[PrepRequest] = None,
    error_budget: float = DEFAULT_ERROR_BUDGET,
) -> Tuple[LoadgenReport, List[Optional[NetFetchResult]]]:
    """Fetch *document_id* with *clients* concurrent connections.

    *settings* carries the per-client protocol knobs and *request* the
    per-fetch preparation parameters sent to the server (all clients
    share both, so a preparation-capable server cooks exactly once).
    *error_budget* is the tolerated error rate
    the report's ``error_budget_remaining`` is measured against.

    Returns the aggregate report plus the per-client results (``None``
    for a client that never reached the server).  Never raises on
    per-client failures — an unreachable server is just ``failed``
    clients in the report.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    started = time.monotonic()
    results = await _fetch_all(
        host, port, document_id, clients, use_cache, settings, request
    )
    elapsed = time.monotonic() - started
    report = summarize_results(
        results, clients=clients, elapsed=elapsed, error_budget=error_budget
    )
    return report, results


async def _fetch_all(
    host: str,
    port: int,
    document_id: str,
    clients: int,
    use_cache: bool,
    settings: Optional[TransferSettings],
    request: Optional[PrepRequest],
) -> List[Optional[NetFetchResult]]:
    """*clients* concurrent fetches; ``None`` for one that got no verdict."""

    async def one_fetch() -> Optional[NetFetchResult]:
        client = NetClient(
            host,
            port,
            cache=PacketCache() if use_cache else None,
            settings=settings,
            request=request,
        )
        try:
            return await client.fetch(document_id)
        except (WireError, OSError):  # ConnectionLost included
            return None

    return list(await asyncio.gather(*(one_fetch() for _ in range(clients))))


def _mp_fetch_block(
    host: str,
    port: int,
    document_id: str,
    clients: int,
    use_cache: bool,
    settings: Optional[TransferSettings],
    request: Optional[PrepRequest],
) -> List[ClientOutcome]:
    """One driver process's share of the fan-out (spawn entry point).

    Runs *clients* concurrent fetches on a private event loop and
    returns reduced outcomes — top-level and argument-picklable so
    :class:`~concurrent.futures.ProcessPoolExecutor` can ship it.
    """
    fetches = _fetch_all(host, port, document_id, clients, use_cache, settings, request)
    return [outcome_of(result) for result in asyncio.run(fetches)]


def run_loadgen_mp(
    host: str,
    port: int,
    document_id: str,
    *,
    clients: int = 1000,
    processes: int = 4,
    use_cache: bool = True,
    settings: Optional[TransferSettings] = None,
    request: Optional[PrepRequest] = None,
    error_budget: float = DEFAULT_ERROR_BUDGET,
) -> Tuple[LoadgenReport, List[ClientOutcome]]:
    """Thousands-of-clients fan-out across *processes* driver processes.

    A single event loop driving N clients becomes the measurement
    bottleneck long before a multi-worker server does; this driver
    splits the fleet across spawn-started processes (mirroring the
    ``repro.simulation.parallel`` pattern) so client-side CPU stops
    capping the observed fetch rate.  Each process runs its share
    concurrently on a private loop and ships back reduced
    :class:`ClientOutcome` rows; the fold is the same
    :func:`summarize_outcomes` the async driver uses.  Synchronous —
    call it from a plain test or CLI process, not inside a loop.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    import concurrent.futures
    import multiprocessing

    processes = min(processes, clients)
    share, remainder = divmod(clients, processes)
    blocks = [share + (1 if i < remainder else 0) for i in range(processes)]
    started = time.monotonic()
    outcomes: List[ClientOutcome] = []
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=processes, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        futures = [
            pool.submit(
                _mp_fetch_block,
                host,
                port,
                document_id,
                block,
                use_cache,
                settings,
                request,
            )
            for block in blocks
            if block > 0
        ]
        for future in futures:
            outcomes.extend(future.result())
    elapsed = time.monotonic() - started
    report = summarize_outcomes(
        outcomes,
        clients=clients,
        elapsed=elapsed,
        error_budget=error_budget,
    )
    return report, outcomes


def bench_record(
    report: LoadgenReport,
    *,
    document_id: Optional[str] = None,
    chaos: Optional[Dict[str, Any]] = None,
    label: Optional[str] = None,
    adaptive: Optional[Dict[str, Any]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The JSON payload :func:`write_bench` persists — SLO-shaped.

    *chaos* optionally embeds the channel-model parameters the run was
    subjected to, so a regression in the trend line can be traced to
    its injected failure mix; *label* names the run variant (e.g.
    ``"bursty-adaptive"``) and *adaptive* carries the server snapshot's
    ``adaptive`` section for A/B rows.  *extra* merges arbitrary
    JSON-safe fields into the record (the multi-worker rows attach the
    fleet size and the merged prep-tier counters this way) — reserved
    SLO keys win on collision.
    """
    record: Dict[str, Any] = {
        "benchmark": "net_loadgen_slo",
        "clients": report.clients,
        "succeeded": report.succeeded,
        "decoded": report.decoded,
        "early_stopped": report.early_stopped,
        "failed": report.failed,
        "reconnects": report.reconnects,
        "elapsed_seconds": round(report.elapsed, 6),
        "p50_seconds": round(report.p50_seconds, 6),
        "p95_seconds": round(report.p95_seconds, 6),
        "p99_seconds": round(report.p99_seconds, 6),
        "mean_seconds": round(report.mean_seconds, 6),
        "fetches_per_second": round(report.fetches_per_second, 3),
        "payload_bytes": report.payload_bytes,
        "served_mb_per_second": round(report.served_mb_per_second, 6),
        "error_rate": round(report.error_rate, 6),
        "error_budget": report.error_budget,
        "error_budget_remaining": round(report.error_budget_remaining, 6),
    }
    if extra is not None:
        for key, value in extra.items():
            record.setdefault(key, value)
    if document_id is not None:
        record["document_id"] = document_id
    if chaos is not None:
        record["chaos"] = chaos
    if label is not None:
        record["label"] = label
    if adaptive is not None:
        record["adaptive"] = adaptive
    return record


def write_bench(
    report: LoadgenReport,
    path: str,
    *,
    document_id: Optional[str] = None,
    chaos: Optional[Dict[str, Any]] = None,
    label: Optional[str] = None,
    adaptive: Optional[Dict[str, Any]] = None,
    extra: Optional[Dict[str, Any]] = None,
    append_row: bool = False,
) -> Dict[str, Any]:
    """Write the SLO benchmark record to *path* (``BENCH_net.json``).

    With ``append_row=True`` the record is appended to the existing
    file's ``rows`` list instead of replacing it — secondary runs
    (e.g. the bursty-channel SLO leg) ride along under the primary
    record without disturbing its top-level shape.  A missing or
    non-object file falls back to a plain write with the record under
    its own ``rows``.
    """
    record = bench_record(
        report,
        document_id=document_id,
        chaos=chaos,
        label=label,
        adaptive=adaptive,
        extra=extra,
    )
    payload: Dict[str, Any] = record
    if append_row:
        existing: Optional[Dict[str, Any]] = None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
            if isinstance(loaded, dict):
                existing = loaded
        except (OSError, ValueError):
            existing = None
        if existing is None:
            existing = {"benchmark": "net_loadgen_slo"}
        rows = existing.get("rows")
        if not isinstance(rows, list):
            rows = []
        # Replace any previous row carrying the same label, so reruns
        # update in place instead of accumulating duplicates.
        if label is not None:
            rows = [row for row in rows if row.get("label") != label]
        rows.append(record)
        existing["rows"] = rows
        payload = existing
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return record
