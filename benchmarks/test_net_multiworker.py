"""Multi-worker SLO rows: scaling, warm restart, bursty chaos.

Appends three labelled rows to ``BENCH_net.json`` (never disturbing
the primary record):

* ``multiworker-1`` / ``multiworker-4`` — the same multi-process
  loadgen against one worker and against four, at the same error
  budget.  On a ≥4-core host the 4-worker fleet must clear 2.5× the
  single worker's fetches/s; on smaller hosts the ratio is recorded
  but not gated (one core cannot demonstrate parallel speedup).
* ``multiworker-warm-restart`` — a fresh fleet on a previously
  populated disk tier must serve without a single cooked-tier miss
  (``prep.misses{cooked} == 0`` after restart).
* ``multiworker-gilbert`` — the fleet behind seeded Gilbert–Elliott
  chaos still leaves error budget on the table.

Marked ``net``; CI runs this in the ``multiworker-slo`` job and
uploads ``BENCH_net.json``.  Quick mode uses a small fleet;
``REPRO_FULL=1`` widens the client fan-out toward the thousands-of-
clients regime.
"""

import asyncio
import os
import pathlib
import random

import pytest

from conftest import emit

from repro.net import ChaosProxy, run_loadgen, run_loadgen_mp
from repro.net.loadgen import write_bench
from repro.net.workers import WorkerConfig, WorkerPool
from repro.prep import PrepRequest

pytestmark = pytest.mark.net

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_net.json"

_FULL = os.environ.get("REPRO_FULL") == "1"

#: Clients per scaling run; FULL mode reaches for the 1000-client
#: regime the CI job exercises.
CLIENTS = 1000 if _FULL else 48
DRIVERS = 4 if _FULL else 2
CHAOS_CLIENTS = 64 if _FULL else 16
ERROR_BUDGET = 0.2
GILBERT_CHAOS = {"seed": 20000806, "model": "gilbert:alpha=0.25,burst=6"}

REQUEST = PrepRequest(query="mobile web", packet_size=64)

PAPER = """<paper>
  <title>Multi Worker Bench Paper</title>
  <abstract><paragraph>Weakly connected browsing of mobile web documents.</paragraph></abstract>
  <section>
    <title>Coding</title>
    <paragraph>Redundancy coding protects wireless packets so the mobile
    client reconstructs the document despite corruption on the channel.</paragraph>
  </section>
  <section>
    <title>Scaling</title>
    <paragraph>Forked worker processes share one listen socket and one
    disk-backed cooked tier, so the fleet cooks each document once.</paragraph>
  </section>
</paper>"""


def fleet_config(disk_root, **overrides):
    kwargs = dict(
        documents=(("doc", PAPER, False),),
        default_request=REQUEST,
        disk_root=str(disk_root),
        round_timeout=10.0,
    )
    kwargs.update(overrides)
    return WorkerConfig(**kwargs)


def _fleet_run(disk_root, workers, clients):
    """Drive *clients* MP clients at a *workers*-strong fleet."""
    with WorkerPool(fleet_config(disk_root), workers=workers) as pool:
        report, _outcomes = run_loadgen_mp(
            pool.host,
            pool.port,
            "doc",
            clients=clients,
            processes=DRIVERS,
            request=REQUEST,
            error_budget=ERROR_BUDGET,
        )
        merged = pool.stats_snapshot(timeout=10.0)
    return report, merged


def test_multiworker_scaling_rows(tmp_path):
    single_report, single_merged = _fleet_run(tmp_path / "one", 1, CLIENTS)
    fleet_report, fleet_merged = _fleet_run(tmp_path / "four", 4, CLIENTS)

    for label, report, merged, workers in (
        ("multiworker-1", single_report, single_merged, 1),
        ("multiworker-4", fleet_report, fleet_merged, 4),
    ):
        assert report.failed == 0
        # One cook per fleet, however many workers: the shared disk
        # tier's file locks single-flight the cold miss cluster-wide.
        assert merged["prep"]["cooked_misses"] == 1
        assert merged["prep"]["disk_writes"] == 1
        write_bench(
            report,
            str(BENCH_PATH),
            document_id="doc",
            label=label,
            extra={"workers": workers, "prep": dict(merged["prep"])},
            append_row=True,
        )

    ratio = (
        fleet_report.fetches_per_second / single_report.fetches_per_second
        if single_report.fetches_per_second
        else 0.0
    )
    emit(
        "net_multiworker_scaling",
        "\n".join(
            [
                f"clients: {CLIENTS} x {DRIVERS} driver proc(s)  "
                f"cores: {os.cpu_count()}",
                f"workers=1: {single_report.fetches_per_second:.1f} fetches/s  "
                f"p95={single_report.p95_seconds * 1000:.1f}ms",
                f"workers=4: {fleet_report.fetches_per_second:.1f} fetches/s  "
                f"p95={fleet_report.p95_seconds * 1000:.1f}ms",
                f"scaling: {ratio:.2f}x  (gated at >= 2.5x on >= 4 cores)",
                f"rows: multiworker-1, multiworker-4 -> {BENCH_PATH}",
            ]
        ),
    )

    # Equal error budget on both sides of the comparison.
    assert single_report.error_budget == fleet_report.error_budget
    assert single_report.error_budget_remaining > 0.0
    assert fleet_report.error_budget_remaining > 0.0
    if (os.cpu_count() or 1) >= 4:
        assert ratio >= 2.5, (
            f"4-worker fleet only scaled {ratio:.2f}x over one worker "
            f"on a {os.cpu_count()}-core host"
        )


def test_multiworker_warm_restart_row(tmp_path):
    disk_root = tmp_path / "shared"
    # Cold fleet: populates the disk tier (exactly one cook), then
    # drains away — simulating a deploy cycling the whole pool.
    cold_report, cold_merged = _fleet_run(disk_root, 2, CHAOS_CLIENTS)
    assert cold_merged["prep"]["cooked_misses"] == 1

    # Warm restart: brand-new processes, same disk root.
    warm_report, warm_merged = _fleet_run(disk_root, 2, CHAOS_CLIENTS)
    assert warm_report.failed == 0
    # The acceptance criterion: zero cooked-tier misses after restart —
    # every worker's first touch was a verified mmap'd bundle load.
    assert warm_merged["prep"]["cooked_misses"] == 0
    assert warm_merged["prep"]["disk_writes"] == 0
    assert warm_merged["prep"]["disk_hits"] >= 1

    record = write_bench(
        warm_report,
        str(BENCH_PATH),
        document_id="doc",
        label="multiworker-warm-restart",
        extra={"workers": 2, "prep": dict(warm_merged["prep"])},
        append_row=True,
    )
    emit(
        "net_multiworker_warm_restart",
        "\n".join(
            [
                f"cold: cooked_misses={cold_merged['prep']['cooked_misses']}  "
                f"disk_writes={cold_merged['prep']['disk_writes']}",
                f"warm: cooked_misses={warm_merged['prep']['cooked_misses']}  "
                f"disk_hits={warm_merged['prep']['disk_hits']}  "
                f"({warm_report.fetches_per_second:.1f} fetches/s)",
                f"row: multiworker-warm-restart -> {BENCH_PATH}",
            ]
        ),
    )
    assert record["prep"]["cooked_misses"] == 0


def test_multiworker_gilbert_chaos_row(tmp_path):
    from repro.channel import parse_model_spec

    config = fleet_config(tmp_path / "chaos")
    with WorkerPool(config, workers=2) as pool:

        async def go():
            model = parse_model_spec(
                GILBERT_CHAOS["model"], seed=GILBERT_CHAOS["seed"]
            )
            async with ChaosProxy(pool.host, pool.port, model=model) as proxy:
                report, _results = await run_loadgen(
                    proxy.host,
                    proxy.port,
                    "doc",
                    clients=CHAOS_CLIENTS,
                    request=REQUEST,
                    error_budget=ERROR_BUDGET,
                )
            return report

        report = asyncio.run(go())
        merged = pool.stats_snapshot(timeout=10.0)

    record = write_bench(
        report,
        str(BENCH_PATH),
        document_id="doc",
        chaos=dict(GILBERT_CHAOS),
        label="multiworker-gilbert",
        extra={"workers": 2, "prep": dict(merged["prep"])},
        append_row=True,
    )
    emit(
        "net_multiworker_gilbert",
        "\n".join(
            [
                f"clients: {report.clients}  succeeded: {report.succeeded}  "
                f"reconnects: {report.reconnects}",
                f"slo: error_rate={report.error_rate:.3f}  "
                f"remaining={report.error_budget_remaining:.1%}",
                f"row: multiworker-gilbert -> {BENCH_PATH}",
            ]
        ),
    )
    assert record["label"] == "multiworker-gilbert"
    assert report.succeeded >= 1
    assert report.error_budget_remaining > 0.0, (
        f"error budget exhausted under gilbert chaos: "
        f"rate={report.error_rate:.3f} against {report.error_budget}"
    )
