"""Stats exposition tests (net-marked): STATS frame + HTTP listener.

Covers the in-band admin frame (``fetch_stats`` against a live
server), the snapshot contents after real traffic, and the
``StatsHTTP`` routes driven by raw HTTP/1.0 requests.
"""

import asyncio
import json
from collections import Counter

import pytest

from repro import obs
from repro.net import (
    DocumentStore,
    NetClient,
    NetServer,
    StatsHTTP,
    fetch_stats,
)
from repro.transport.cache import PacketCache

from tests.netutil import assert_no_leaked_tasks, make_prepared

pytestmark = pytest.mark.net


async def http_get(host, port, path):
    """One raw HTTP/1.0 GET; returns (status_line, body_str)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.0\r\nHost: x\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    head, _, body = raw.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0].decode(), body.decode()


class TestStatsFrame:
    def test_snapshot_after_traffic(self):
        async def go():
            prepared, _payload = make_prepared(size=2048, packet_size=64)
            store = DocumentStore()
            store.add(prepared)
            async with NetServer(store) as server:
                result = await NetClient(
                    server.host, server.port, cache=PacketCache()
                ).fetch("doc")
                assert result.status == "decoded"
                snapshot = await fetch_stats(server.host, server.port)

            assert snapshot["server"]["completed"] == 1
            assert snapshot["server"]["frames_sent"] > 0
            assert snapshot["server"]["stats_requests"] == 1
            assert snapshot["server"]["flight_dumps"] == 0
            slo = snapshot["slo"]
            assert slo["count"] == 1
            assert slo["errors"] == 0
            assert slo["error_budget_remaining"] == 1.0
            assert slo["p95_seconds"] > 0.0
            assert snapshot["flight"] == {"dumps": 0, "kept": 0, "recent": []}
            await assert_no_leaked_tasks()

        asyncio.run(go())

    def test_stats_connection_does_not_skew_slo(self):
        async def go():
            store = DocumentStore()
            async with NetServer(store) as server:
                first = await fetch_stats(server.host, server.port)
                second = await fetch_stats(server.host, server.port)
            assert first["slo"]["count"] == 0
            assert second["slo"]["count"] == 0
            assert second["server"]["stats_requests"] == 2
            assert second["server"]["completed"] == 0
            await assert_no_leaked_tasks()

        asyncio.run(go())

    def test_snapshot_is_json_safe(self):
        async def go():
            store = DocumentStore()
            async with NetServer(store) as server:
                snapshot = await fetch_stats(server.host, server.port)
            json.dumps(snapshot)  # would raise on non-JSON-safe values
            await assert_no_leaked_tasks()

        asyncio.run(go())


class TestStatsHTTP:
    def test_routes(self):
        async def go():
            prepared, _payload = make_prepared(size=2048, packet_size=64)
            store = DocumentStore()
            store.add(prepared)
            async with NetServer(store) as server:
                async with StatsHTTP(server.stats_snapshot) as http:
                    result = await NetClient(
                        server.host, server.port, cache=PacketCache()
                    ).fetch("doc")
                    assert result.status == "decoded"

                    status, body = await http_get(http.host, http.port, "/healthz")
                    assert status.endswith("200 OK")
                    assert body == "ok\n"

                    status, body = await http_get(
                        http.host, http.port, "/stats.json"
                    )
                    assert status.endswith("200 OK")
                    snapshot = json.loads(body)
                    assert snapshot["server"]["completed"] == 1

                    status, body = await http_get(http.host, http.port, "/metrics")
                    assert status.endswith("200 OK")
                    # Always-on counters flatten into samples even with
                    # telemetry disabled.
                    assert "repro_server_completed 1" in body
                    assert "repro_slo_error_budget_remaining 1" in body

                    status, _body = await http_get(http.host, http.port, "/nope")
                    assert status.endswith("404 Not Found")
            await assert_no_leaked_tasks()

        asyncio.run(go())

    def test_metrics_includes_obs_registry_when_enabled(self):
        async def go():
            prepared, _payload = make_prepared(size=2048, packet_size=64)
            store = DocumentStore()
            store.add(prepared)
            async with NetServer(store) as server:
                async with StatsHTTP(server.stats_snapshot) as http:
                    result = await NetClient(
                        server.host, server.port, cache=PacketCache()
                    ).fetch("doc")
                    assert result.status == "decoded"
                    _status, body = await http_get(
                        http.host, http.port, "/metrics"
                    )
                    assert "\nrepro_server_frames_sent " in body
                    assert "# TYPE repro_net_fetch_seconds histogram" in body
                    assert 'le="+Inf"' in body
            await assert_no_leaked_tasks()

        obs.enable()
        try:
            asyncio.run(go())
        finally:
            obs.disable(reset=True)

    def test_metrics_shows_each_fact_once(self):
        """With telemetry on, no sample repeats and each name is one
        group of lines; the server's counts come from its snapshot."""

        async def go():
            prepared, _payload = make_prepared(size=2048, packet_size=64)
            store = DocumentStore()
            store.add(prepared)
            async with NetServer(store) as server:
                async with StatsHTTP(server.stats_snapshot) as http:
                    result = await NetClient(
                        server.host, server.port, cache=PacketCache()
                    ).fetch("doc")
                    assert result.status == "decoded"
                    while server.active_connections:
                        await asyncio.sleep(0.01)
                    _status, body = await http_get(
                        http.host, http.port, "/metrics"
                    )
            await assert_no_leaked_tasks()
            return body

        obs.enable()
        try:
            body = asyncio.run(go())
        finally:
            obs.disable(reset=True)
        samples = [line for line in body.splitlines() if not line.startswith("#")]
        keys = [line.rsplit(" ", 1)[0] for line in samples]
        assert [key for key, count in Counter(keys).items() if count > 1] == []
        names = [key.split("{", 1)[0] for key in keys]
        groups = [name for i, name in enumerate(names) if i == 0 or names[i - 1] != name]
        assert [name for name, count in Counter(groups).items() if count > 1] == []
        assert "repro_server_frames_sent" in names
        assert "repro_outcomes_decoded 1" in samples
        assert "# TYPE repro_net_fetch_seconds histogram" in body

    def test_non_get_rejected(self):
        async def go():
            async with StatsHTTP(lambda: {"server": {}}) as http:
                reader, writer = await asyncio.open_connection(
                    http.host, http.port
                )
                writer.write(b"POST /metrics HTTP/1.0\r\n\r\n")
                await writer.drain()
                raw = await reader.read(-1)
                writer.close()
                await writer.wait_closed()
                assert b"405" in raw.split(b"\r\n")[0]
            await assert_no_leaked_tasks()

        asyncio.run(go())
