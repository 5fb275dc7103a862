"""Networked acceptance for the preparation service (issue criterion).

A ``NetServer`` fronted directly by a :class:`PreparationService`:
50 concurrent loadgen clients sharing one request must trigger exactly
one pipeline run and one cooked build (the snapshot's ``prep``
``cooked_misses == 1``, ``cooked_hits >= 49``, even with telemetry
on); per-request ``prep`` parameters in HELLO
change what is served; junk parameters come back as a wire error, not
a hang.  Marked ``net``.
"""

import asyncio
import threading

import pytest

import repro.obs as obs
from repro.net import NetClient, NetServer, WireError, run_loadgen
from repro.prep import PrepRequest, PreparationService, TransferSettings

from tests.netutil import assert_no_leaked_tasks
from tests.test_prep_service import OTHER, PAPER, make_service

pytestmark = [pytest.mark.net]


@pytest.fixture
def telemetry():
    obs.enable()
    yield obs.OBS
    obs.disable(reset=True)


def make_store():
    service, pipeline = make_service()
    service.add_document("doc", PAPER)
    service.add_document("other", OTHER)
    return service, pipeline


class TestLoadgenSharesOneBuild:
    def test_fifty_clients_one_pipeline_run(self, telemetry):
        service, pipeline = make_store()

        async def go():
            async with NetServer(service) as server:
                report, results = await run_loadgen(
                    server.host,
                    server.port,
                    "doc",
                    clients=50,
                    request=PrepRequest(query="mobile web", packet_size=64),
                )
            await assert_no_leaked_tasks()
            return report, results, server.stats_snapshot()

        report, results, snapshot = asyncio.run(go())
        assert report.succeeded == 50
        assert report.failed == 0
        payloads = {result.payload for result in results}
        assert len(payloads) == 1  # every client decoded the same bytes

        # The acceptance criterion: one cook, everyone else hits.
        assert pipeline.runs == 1
        assert service.stats["cooked_misses"] == 1
        assert service.stats["cooked_hits"] >= 49
        assert snapshot["prep"]["cooked_misses"] == 1
        assert snapshot["prep"]["cooked_hits"] >= 49
        assert snapshot["outcomes"]["decoded"] == 50
        assert telemetry.metrics.get("prep.misses") is None


def prep_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-prep")]


class OneAtATimeStore:
    """A service wrapper that records which threads prepare, and how
    many prepares ever ran at once."""

    def __init__(self, service):
        self.service = service
        self.lock = threading.Lock()
        self.active = 0
        self.most_at_once = 0
        self.threads = set()
        self.prep_threads_seen = 0

    def prepare(self, document_id, request=None):
        with self.lock:
            self.active += 1
            self.most_at_once = max(self.most_at_once, self.active)
            self.threads.add(threading.current_thread().name)
            self.prep_threads_seen = max(self.prep_threads_seen, len(prep_threads()))
        try:
            return self.service.prepare(document_id, request)
        finally:
            with self.lock:
                self.active -= 1


class TestOnePrepThread:
    def test_concurrent_cold_fetches_share_one_thread(self):
        service, pipeline = make_store()
        store = OneAtATimeStore(service)
        requests = [
            PrepRequest(query=query, packet_size=packet_size)
            for query in ("mobile web", "caching")
            for packet_size in (64, 128)
        ]

        async def go():
            async with NetServer(store) as server:
                clients = [
                    NetClient(server.host, server.port, request=request)
                    for request in requests
                ]
                results = await asyncio.gather(
                    *(client.fetch(document) for client in clients for document in ("doc", "other"))
                )
                during = len(prep_threads())
            return results, during

        results, during = asyncio.run(go())
        assert all(result.payload for result in results)
        assert service.stats["cooked_misses"] == 2 * len(requests)  # every key cold
        assert pipeline.runs == 2
        assert store.most_at_once == 1
        assert len(store.threads) == 1
        assert next(iter(store.threads)).startswith("repro-prep")
        assert store.prep_threads_seen == 1
        assert during == 1
        assert prep_threads() == []


class TestPerRequestParameters:
    def test_prep_field_changes_served_bytes(self):
        service, _ = make_store()

        async def fetch(request):
            async with NetServer(service) as server:
                client = NetClient(server.host, server.port, request=request)
                return await client.fetch("doc")

        async def go():
            everything = await fetch(PrepRequest(query="caching packets"))
            headline = await fetch(
                PrepRequest(query="caching packets", lod="section")
            )
            await assert_no_leaked_tasks()
            return everything, headline

        everything, headline = asyncio.run(go())
        # Same document, but the section-level schedule orders (and
        # frames) the stream differently than the paragraph-level one.
        assert everything.payload != headline.payload
        # Distinct parameter sets are distinct cooked-tier entries.
        assert service.stats["cooked_misses"] == 2

    def test_absent_prep_field_uses_server_default(self):
        service, _ = make_store()
        service.default_request = PrepRequest(query="mobile web")

        async def go():
            async with NetServer(service) as server:
                no_field = NetClient(server.host, server.port)
                explicit = NetClient(
                    server.host, server.port, request=PrepRequest(query="mobile web")
                )
                first = await no_field.fetch("doc")
                second = await explicit.fetch("doc")
            await assert_no_leaked_tasks()
            return first, second

        first, second = asyncio.run(go())
        assert first.payload == second.payload
        assert service.stats["cooked_misses"] == 1
        assert service.stats["cooked_hits"] == 1

    def test_bad_prep_parameters_is_a_clean_wire_error(self):
        service, _ = make_store()

        async def go():
            async with NetServer(service) as server:
                client = NetClient(
                    server.host,
                    server.port,
                    # qic needs a query; the server rejects the combination.
                    request=PrepRequest(measure="qic"),
                )
                with pytest.raises(WireError, match="bad prep parameters"):
                    await client.fetch("doc")
                assert server.stats["errors"] >= 1
                # The connection slot is released; a good fetch still works.
                ok = NetClient(server.host, server.port)
                result = await ok.fetch("doc")
                assert result.payload
            await assert_no_leaked_tasks()

        asyncio.run(go())


class TestCrossWorkerParity:
    """N worker processes × M driver processes: still exactly one cook.

    The multi-worker acceptance criterion of the disk-tier issue: the
    shared :class:`~repro.prep.diskstore.DiskCookedStore` plus its
    per-bundle file locks must make a fleet behave like one process —
    a single pipeline run cluster-wide and byte-identical decodes on
    every client, whichever worker served it.
    """

    def test_workers_times_clients_share_one_cook(self, tmp_path):
        from repro.net import run_loadgen_mp
        from repro.net.workers import WorkerConfig, WorkerPool

        request = PrepRequest(query="mobile web", packet_size=64)
        config = WorkerConfig(
            documents=(("doc", PAPER, False),),
            default_request=request,
            disk_root=str(tmp_path / "cache"),
            round_timeout=5.0,
        )
        with WorkerPool(config, workers=3) as pool:
            report, outcomes = run_loadgen_mp(
                pool.host,
                pool.port,
                "doc",
                clients=24,
                processes=2,
                request=request,
            )
            assert report.succeeded == 24
            assert report.failed == 0
            # Byte identity across worker and driver processes alike:
            # one sha256 for every successful payload.
            digests = {outcome.payload_sha256 for outcome in outcomes}
            assert len(digests) == 1 and "" not in digests

            # Server-side bookkeeping trails client-side success (a
            # handler only notices the departed client on its next
            # socket op), so poll until the fleet has accounted all 24
            # before reading the merged counters.  completed vs
            # client_gone is itself a shutdown race; the sum is stable.
            import time as _time

            deadline = _time.monotonic() + 10.0
            while True:
                merged = pool.stats_snapshot(timeout=10.0)
                served = (
                    merged["server"]["completed"]
                    + merged["outcomes"]["client_gone"]
                )
                if served >= 24 or _time.monotonic() >= deadline:
                    break
                _time.sleep(0.05)
            assert merged["prep"]["cooked_misses"] == 1
            assert merged["prep"]["disk_writes"] == 1
            assert served == 24
            assert len(merged["workers"]) == 3
        # Leak check: the pool reaped every worker process.
        assert pool.alive() == 0
        for pid in pool.pids:
            assert not any(
                process.pid == pid and process.is_alive()
                for process in pool._processes
            )


class TestProfileOnTheWire:
    def test_early_stop_content_is_the_in_process_prefix_sum(self):
        """The profile arrives bit for bit: ``content_received`` is exact."""
        service, _ = make_store()
        request = PrepRequest(packet_size=64)
        prepared = service.prepare("doc", request)
        settings = TransferSettings(relevance_threshold=0.4)

        async def go():
            async with NetServer(service) as server:
                client = NetClient(server.host, server.port, settings=settings)
                result = await client.fetch("doc", request)
            await assert_no_leaked_tasks()
            return result

        result = asyncio.run(go())
        assert result.status == "early_stop"
        assert 0 < result.frames_received < prepared.m
        expected = 0.0
        for share in prepared.content_profile[: result.frames_received]:
            expected += share
        assert result.content_received == expected
        assert expected >= 0.4 > expected - prepared.content_profile[result.frames_received - 1]
