"""Loadgen SLO smoke: chaos fan-out -> BENCH_net.json at the repo root.

Runs an in-process :class:`NetServer` behind a seeded
:class:`ChaosProxy` (frame corruption plus a whiff of mid-stream
disconnects), fans out concurrent :class:`NetClient` fetches through
:func:`run_loadgen`, and persists the SLO-shaped record with
:func:`write_bench`.  The assertion is the operational contract CI
gates on: the run must leave error budget on the table.

Marked ``net`` so the tier-1 suite stays socket-free; CI runs it in
the dedicated loadgen-slo job and uploads ``BENCH_net.json`` as an
artifact.  Quick mode uses a small fleet; ``REPRO_FULL=1`` widens it.
"""

import asyncio
import json
import os
import pathlib
import random

import pytest

from conftest import emit

from repro.channel import IIDModel
from repro.coding.packets import Packetizer
from repro.net import ChaosProxy, DocumentStore, NetServer
from repro.net.loadgen import run_loadgen, write_bench
from repro.prep import DocumentSender

pytestmark = pytest.mark.net

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_net.json"

_FULL = os.environ.get("REPRO_FULL") == "1"

CLIENTS = 64 if _FULL else 24
ERROR_BUDGET = 0.2
CHAOS = {
    "seed": 20000806,
    "drop": 0.0,
    "corrupt": 0.12,
    "disconnect": 0.0008,
    "max_disconnects": 2,
}


def _prepared_document(document_id="doc", size=4096, packet_size=64, seed=99):
    payload = bytes(random.Random(seed).randrange(256) for _ in range(size))
    sender = DocumentSender(Packetizer(packet_size=packet_size, redundancy_ratio=1.5))
    return sender.prepare_raw(document_id, payload)


def test_net_loadgen_slo():
    async def go():
        store = DocumentStore()
        store.add(_prepared_document())
        async with NetServer(store) as server:
            async with ChaosProxy(
                server.host,
                server.port,
                model=IIDModel(
                    rng=random.Random(CHAOS["seed"]),
                    drop=CHAOS["drop"],
                    corrupt=CHAOS["corrupt"],
                    disconnect=CHAOS["disconnect"],
                ),
                max_disconnects=CHAOS["max_disconnects"],
            ) as proxy:
                report, _results = await run_loadgen(
                    proxy.host,
                    proxy.port,
                    "doc",
                    clients=CLIENTS,
                    error_budget=ERROR_BUDGET,
                )
        return report

    report = asyncio.run(go())
    record = write_bench(
        report, str(BENCH_PATH), document_id="doc", chaos=dict(CHAOS)
    )

    emit(
        "net_loadgen_slo",
        "\n".join(
            [
                f"clients: {report.clients}  succeeded: {report.succeeded}  "
                f"failed: {report.failed}  reconnects: {report.reconnects}",
                f"latency: p50={report.p50_seconds * 1000:.1f}ms  "
                f"p95={report.p95_seconds * 1000:.1f}ms  "
                f"p99={report.p99_seconds * 1000:.1f}ms",
                f"throughput: {report.fetches_per_second:.1f} fetches/s  "
                f"{report.served_mb_per_second:.3f} MB/s served",
                f"slo: error_rate={report.error_rate:.3f}  "
                f"budget={report.error_budget}  "
                f"remaining={report.error_budget_remaining:.1%}",
                f"record: {BENCH_PATH}",
            ]
        ),
    )

    # The committed record must carry the full SLO vocabulary.
    for key in (
        "benchmark",
        "p50_seconds",
        "p95_seconds",
        "p99_seconds",
        "error_rate",
        "error_budget",
        "error_budget_remaining",
        "served_mb_per_second",
        "chaos",
    ):
        assert key in record, key
    assert record["benchmark"] == "net_loadgen_slo"
    assert json.loads(BENCH_PATH.read_text()) == record

    # The CI gate: chaos at these rates must not exhaust the budget.
    assert report.succeeded >= 1
    assert report.error_budget_remaining > 0.0, (
        f"error budget exhausted: rate={report.error_rate:.3f} "
        f"against budget={report.error_budget}"
    )


BURSTY_LABEL = "bursty-adaptive"
BURSTY_CHAOS = {
    "seed": 20000806,
    "model": "gilbert:alpha=0.25,burst=6",
}


def test_net_loadgen_slo_bursty_adaptive_row():
    """The A/B leg: bursty Gilbert–Elliott chaos vs an adaptive server.

    Appends a labelled row to ``BENCH_net.json`` (after the primary
    record, which this must not disturb) so the CI trend line carries
    both the i.i.d. baseline and the bursty/adaptive variant.
    """
    from repro.channel import parse_model_spec

    async def go():
        store = DocumentStore()
        store.add(_prepared_document(size=4096, packet_size=64))
        async with NetServer(
            store,
            adaptive_gamma=True,
            gamma_ceiling=3.0,
        ) as server:
            model = parse_model_spec(
                BURSTY_CHAOS["model"], seed=BURSTY_CHAOS["seed"]
            )
            async with ChaosProxy(server.host, server.port, model=model) as proxy:
                report, _results = await run_loadgen(
                    proxy.host,
                    proxy.port,
                    "doc",
                    clients=CLIENTS,
                    error_budget=ERROR_BUDGET,
                )
            adaptive = server.stats_snapshot()["adaptive"]
        return report, adaptive

    report, adaptive = asyncio.run(go())
    record = write_bench(
        report,
        str(BENCH_PATH),
        document_id="doc",
        chaos=dict(BURSTY_CHAOS),
        label=BURSTY_LABEL,
        adaptive=adaptive,
        append_row=True,
    )

    emit(
        "net_loadgen_slo_bursty",
        "\n".join(
            [
                f"clients: {report.clients}  succeeded: {report.succeeded}  "
                f"failed: {report.failed}  reconnects: {report.reconnects}",
                f"adaptive: rounds={adaptive['rounds']}  "
                f"frames_saved={adaptive['frames_saved']}",
                f"slo: error_rate={report.error_rate:.3f}  "
                f"remaining={report.error_budget_remaining:.1%}",
                f"row: {BURSTY_LABEL} -> {BENCH_PATH}",
            ]
        ),
    )

    assert record["label"] == BURSTY_LABEL
    assert record["adaptive"]["enabled"] is True
    assert record["adaptive"]["rounds"] >= 1
    # The adaptive server demonstrably responded to the bursty channel.
    persisted = json.loads(BENCH_PATH.read_text())
    rows = persisted.get("rows", [])
    assert [row["label"] for row in rows].count(BURSTY_LABEL) == 1
    (row,) = [row for row in rows if row["label"] == BURSTY_LABEL]
    assert row == record
    # The primary record's top-level shape survives the append.
    assert persisted["benchmark"] == "net_loadgen_slo"

    # The same CI gate applies to the bursty leg.
    assert report.succeeded >= 1
    assert report.error_budget_remaining > 0.0, (
        f"error budget exhausted on the bursty leg: "
        f"rate={report.error_rate:.3f} against budget={report.error_budget}"
    )
