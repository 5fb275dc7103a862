"""Carousel-vs-unicast benchmark -> BENCH_broadcast.json at the repo root.

Two legs, one record:

1. **Fleet simulation** — :func:`run_broadcast_experiment` tunes a
   thousand passive :class:`CarouselReceiver` radios into one shared
   carousel stream at random offsets, under seeded iid and
   Gilbert–Elliott loss, and replays the same per-reader verdict
   schedules against the dedicated-stream unicast baseline.  The gate
   is the paper's broadcast argument in numbers: for a hot document
   with hundreds of readers the carousel's bytes on air must beat
   unicast's (which grow linearly with the fleet).
2. **Socket smoke** — a real :class:`NetServer` with a live carousel
   channel serves the same document both ways (``DeliveryMode``
   selected per fetch), pinning the simulated claim to the wire path.

Marked ``net`` so tier-1 stays socket-free; CI runs this in the
broadcast job and uploads ``BENCH_broadcast.json`` as an artifact.
Quick mode keeps the document small; ``REPRO_FULL=1`` widens both legs.
"""

import asyncio
import json
import os
import pathlib
import random

import pytest

from conftest import emit

from repro.broadcast import CarouselScheduler
from repro.coding.packets import Packetizer
from repro.net import DocumentStore, NetServer
from repro.net.loadgen import run_loadgen
from repro.prep import DeliveryMode, DocumentSender, PrepRequest
from repro.simulation.broadcast import run_broadcast_experiment

pytestmark = pytest.mark.net

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_broadcast.json"
)

_FULL = os.environ.get("REPRO_FULL") == "1"

READERS = 4000 if _FULL else 1000
DOCUMENT_SIZE = 32768 if _FULL else 8192
SOCKET_CLIENTS = 32 if _FULL else 8
SEED = 20000806
CHANNELS = ("iid:corrupt=0.1", "gilbert:alpha=0.1,burst=5")


def _merge_into_bench(section: str, payload) -> None:
    """Attach *payload* under *section* in ``BENCH_broadcast.json``.

    The two legs run as independent tests (in either order); each
    merges its section into whatever the other already wrote.
    """
    record = {"benchmark": "broadcast_carousel"}
    try:
        with open(BENCH_PATH, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
        if isinstance(loaded, dict):
            record = loaded
    except (OSError, ValueError):
        pass
    record[section] = payload
    with open(BENCH_PATH, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_broadcast_fleet_vs_unicast():
    report = run_broadcast_experiment(
        readers=READERS,
        documents=4,
        document_size=DOCUMENT_SIZE,
        packet_size=256,
        schedule="skewed",
        channels=CHANNELS,
        seed=SEED,
    )

    assert report["readers"] >= 1000
    for row in report["rows"]:
        carousel, unicast = row["carousel"], row["unicast"]
        # Every passive radio must walk away with the document under
        # both loss shapes...
        assert carousel["decoded"] == READERS
        assert unicast["decoded"] == READERS
        # ...a sample of reconstructions is checked byte-identical...
        assert carousel["payloads_verified"] > 0
        # ...and the shared stream must beat per-reader unicast on
        # bytes on air (the fleet is far beyond the 100-reader bar).
        assert carousel["bytes_on_air"] < unicast["bytes_on_air"]
        assert row["air_savings_ratio"] > 1.0
        emit(
            "broadcast_carousel",
            f"{row['channel']}: carousel {carousel['bytes_on_air']} B on air "
            f"vs unicast {unicast['bytes_on_air']} B "
            f"({row['air_savings_ratio']:.1f}x), "
            f"mean tuning {carousel['mean_tuning_slots']:.1f} slots",
        )

    _merge_into_bench("fleet", report)
    assert BENCH_PATH.exists()


def test_broadcast_socket_smoke():
    payload = bytes(random.Random(SEED).randrange(256) for _ in range(4096))
    sender = DocumentSender(Packetizer(packet_size=128, redundancy_ratio=1.5))
    prepared = sender.prepare_raw("doc", payload)

    async def go():
        store = DocumentStore()
        store.add(prepared)
        scheduler = CarouselScheduler()
        scheduler.add_document(prepared, 1)
        async with NetServer(store, carousel=scheduler) as server:
            unicast_report, unicast_results = await run_loadgen(
                server.host, server.port, "doc", clients=SOCKET_CLIENTS
            )
            carousel_report, carousel_results = await run_loadgen(
                server.host,
                server.port,
                "doc",
                clients=SOCKET_CLIENTS,
                request=PrepRequest(delivery=DeliveryMode.CAROUSEL),
            )
            stats = server.stats_snapshot()
        return unicast_report, unicast_results, carousel_report, carousel_results, stats

    unicast_report, unicast_results, carousel_report, carousel_results, stats = (
        asyncio.run(go())
    )

    assert unicast_report.decoded == SOCKET_CLIENTS
    assert carousel_report.decoded == SOCKET_CLIENTS
    for result in carousel_results:
        assert result is not None and result.payload == payload
    for result in unicast_results:
        assert result is not None and result.payload == payload
    broadcast_stats = stats["broadcast"]
    assert broadcast_stats["subscriptions"] == SOCKET_CLIENTS

    _merge_into_bench(
        "socket",
        {
            "clients": SOCKET_CLIENTS,
            "payload_bytes": len(payload),
            "unicast_mean_seconds": round(unicast_report.mean_seconds, 6),
            "carousel_mean_seconds": round(carousel_report.mean_seconds, 6),
            "carousel_bytes_aired": broadcast_stats["bytes_aired"],
            "carousel_cycles_aired": broadcast_stats["cycles_aired"],
            "subscriptions": broadcast_stats["subscriptions"],
            "slots_dropped": broadcast_stats["slots_dropped"],
        },
    )
    emit(
        "broadcast_carousel",
        f"socket: {SOCKET_CLIENTS} clients decoded both ways; carousel aired "
        f"{broadcast_stats['bytes_aired']} B over "
        f"{broadcast_stats['cycles_aired']} cycle(s)",
    )
