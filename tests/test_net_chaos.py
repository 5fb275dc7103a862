"""Chaos regression tests: documented verdicts, no leaked tasks.

Each scenario drives the server/client pair into a specific failure
mode and asserts the engine terminates with a documented effect
(Decoded / Failed) and that every asyncio task is collected.
"""

import asyncio
import random

import pytest

from repro.channel import IIDModel
from repro.net import (
    ChaosProxy,
    ConnectionLost,
    DocumentStore,
    MSG_DONE,
    MSG_HELLO,
    MSG_MANIFEST,
    MSG_NEXT_ROUND,
    MSG_ROUND_END,
    NetClient,
    NetServer,
    decode_json,
    encode_json,
    read_expected,
    read_message,
)
from repro.net.wire import MSG_ERROR, MSG_FRAME
from repro.prep import DeliveryMode, PrepRequest, TransferSettings
from repro.transport.cache import PacketCache

from tests.netutil import assert_no_leaked_tasks, make_prepared

pytestmark = pytest.mark.net


def make_store(**kwargs):
    prepared, payload = make_prepared(**kwargs)
    store = DocumentStore()
    store.add(prepared)
    return store, prepared, payload


def test_server_killed_mid_round_fails_the_transfer():
    """kill() mid-transfer: the client's engine terminates Failed."""

    async def go():
        store, prepared, _ = make_store(size=8192, packet_size=64)
        server = NetServer(store)
        await server.start()
        # Heavy drop keeps the transfer multi-round so the kill lands
        # mid-transfer deterministically.
        proxy = ChaosProxy(
            server.host,
            server.port,
            model=IIDModel(rng=random.Random(5), drop=0.97),
        )
        await proxy.start()
        try:
            client = NetClient(
                proxy.host,
                proxy.port,
                cache=PacketCache(),
                settings=TransferSettings(round_timeout=1.0, max_reconnects=1),
                reconnect_delay=0.01,
            )
            fetch = asyncio.ensure_future(client.fetch("doc"))
            while server.stats["rounds_served"] < 1:
                await asyncio.sleep(0.01)
            server.kill()
            result = await fetch
        finally:
            await proxy.stop()
            await server.stop()
        assert result.status == "failed"
        assert not result.success
        assert result.reconnects == 2  # one legal redial, one over budget
        await assert_no_leaked_tasks()

    asyncio.run(go())


@pytest.mark.parametrize(
    "request_", [None, PrepRequest(delivery=DeliveryMode.CAROUSEL)],
    ids=["unicast", "carousel"],
)
def test_unreachable_server_raises_connection_lost(request_):
    """No manifest (or air index) was ever seen: the failure is an exception."""

    async def go():
        store, _, _ = make_store()
        server = NetServer(store)
        await server.start()
        port = server.port
        await server.stop()  # nothing is listening on `port` now
        client = NetClient(
            "127.0.0.1",
            port,
            settings=TransferSettings(max_reconnects=1),
            reconnect_delay=0.01,
            request=request_,
        )
        with pytest.raises(ConnectionLost):
            await client.fetch("doc")
        await assert_no_leaked_tasks()

    asyncio.run(go())


def test_frames_on_a_dropped_connection_are_counted():
    """frames_received counts every frame read, the cut connection's too.

    On a clean channel the cached resume reads exactly M frames: the
    first connection's before the cut, the rest on the redial.
    """

    async def go():
        store, prepared, payload = make_store(size=4096)
        async with NetServer(store) as server:
            async with ChaosProxy(
                server.host, server.port, cut_after_frames=10
            ) as proxy:
                client = NetClient(
                    proxy.host, proxy.port, cache=PacketCache(), reconnect_delay=0.01
                )
                result = await client.fetch("doc")
        assert result.status == "decoded" and result.payload == payload
        assert result.reconnects == 1
        assert result.frames_received == prepared.m
        await assert_no_leaked_tasks()

    asyncio.run(go())


async def _hello_reply(server, have):
    """Send one raw HELLO with *have*; return the first reply envelope."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        writer.write(encode_json(MSG_HELLO, {"doc": "doc", "have": have}))
        await writer.drain()
        return await read_message(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def test_hello_have_that_is_not_a_list_is_refused():
    """A non-list ``have`` is answered with ERROR and counted."""

    async def go():
        store, _, _ = make_store(size=512)
        async with NetServer(store) as server:
            msg_type, body = await _hello_reply(server, 5)
            assert msg_type == MSG_ERROR
            assert "have must be a list" in decode_json(body)["message"]
        assert server.stats["errors"] == 1
        await assert_no_leaked_tasks()

    asyncio.run(go())


def test_hello_have_ignores_bools():
    """JSON ``true`` is not sequence 1: the manifest skips nothing."""

    async def go():
        store, _, _ = make_store(size=512)
        async with NetServer(store) as server:
            msg_type, body = await _hello_reply(server, [True])
            assert msg_type == MSG_MANIFEST
            assert decode_json(body)["skip"] == []
        await assert_no_leaked_tasks()

    asyncio.run(go())


def test_half_open_socket_times_out_server_side():
    """A peer that dials and goes silent is reaped by the round timeout."""

    async def go():
        store, _, _ = make_store()
        async with NetServer(store, round_timeout=0.2) as server:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            deadline = asyncio.get_running_loop().time() + 5.0
            while server.outcomes["timeout"] < 1:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            while server.active_connections:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        assert server.outcomes["timeout"] == 1
        assert server.active_connections == 0
        await assert_no_leaked_tasks()

    asyncio.run(go())


def test_silent_client_after_round_times_out_server_side():
    """HELLO then silence: the server times out waiting for NEXT_ROUND."""

    async def go():
        store, _, _ = make_store(size=512)
        async with NetServer(store, round_timeout=0.2) as server:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(encode_json(MSG_HELLO, {"doc": "doc", "have": []}))
            await writer.drain()
            await read_expected(reader, MSG_MANIFEST)
            # Drain the round but never answer NEXT_ROUND.
            while True:
                msg_type, _ = await read_message(reader)
                if msg_type == MSG_ROUND_END:
                    break
            deadline = asyncio.get_running_loop().time() + 5.0
            while server.outcomes["timeout"] < 1:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        await assert_no_leaked_tasks()

    asyncio.run(go())


def test_slow_reader_is_bounded_by_backpressure():
    """A reader that stalls holds at most send_queue_frames of queue."""

    async def go():
        store, prepared, _ = make_store(size=8192, packet_size=64)
        capacity = 8
        assert prepared.n > capacity  # the round must overrun the queue
        async with NetServer(
            store, round_timeout=10.0, send_queue_frames=capacity
        ) as server:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(encode_json(MSG_HELLO, {"doc": "doc", "have": []}))
            await writer.drain()
            await asyncio.sleep(0.3)  # stall before reading anything
            await read_expected(reader, MSG_MANIFEST)
            frames = 0
            while True:
                msg_type, _ = await read_message(reader)
                if msg_type == MSG_FRAME:
                    frames += 1
                elif msg_type == MSG_ROUND_END:
                    break
            assert frames == prepared.n
            writer.write(encode_json(MSG_DONE, {"status": "decoded", "round": 1}))
            await writer.drain()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            deadline = asyncio.get_running_loop().time() + 5.0
            while server.active_connections:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
        assert server.stats["completed"] == 1
        assert 0 < server.stats["sendq_high_water"] <= capacity
        await assert_no_leaked_tasks()

    asyncio.run(go())


def test_two_concurrent_clients_same_document():
    """Per-connection engines: concurrent fetches never interfere."""

    async def go():
        store, _, payload = make_store(size=4096)
        async with NetServer(store) as server:
            clients = [
                NetClient(server.host, server.port, cache=PacketCache())
                for _ in range(2)
            ]
            results = await asyncio.gather(
                *(client.fetch("doc") for client in clients)
            )
        for result in results:
            assert result.status == "decoded"
            assert result.payload == payload
        assert server.stats["connections"] == 2
        assert server.stats["completed"] == 2
        await assert_no_leaked_tasks()

    asyncio.run(go())


def test_round_bound_enforced_server_side():
    """A client that keeps asking for rounds is refused at max_rounds."""

    async def go():
        store, _, _ = make_store(size=512)
        async with NetServer(store, max_rounds=3) as server:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(encode_json(MSG_HELLO, {"doc": "doc", "have": []}))
            await writer.drain()
            await read_expected(reader, MSG_MANIFEST)
            refused = False
            for _ in range(10):
                while True:
                    msg_type, body = await read_message(reader)
                    if msg_type == MSG_ROUND_END:
                        break
                    if msg_type == MSG_ERROR:
                        refused = True
                        break
                if refused:
                    break
                writer.write(
                    encode_json(MSG_NEXT_ROUND, {"round": 0, "have": []})
                )
                await writer.drain()
            assert refused
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        assert server.stats["errors"] == 1
        await assert_no_leaked_tasks()

    asyncio.run(go())


def test_graceful_stop_drains_inflight_transfer():
    """stop() lets an in-flight fetch finish before closing."""

    async def go():
        store, _, payload = make_store(size=4096)
        server = NetServer(store)
        await server.start()
        client = NetClient(server.host, server.port, cache=PacketCache())
        fetch = asyncio.ensure_future(client.fetch("doc"))
        while server.stats["connections"] < 1:
            await asyncio.sleep(0.005)
        await server.stop(drain_timeout=5.0)
        result = await fetch
        assert result.status == "decoded"
        assert result.payload == payload
        await assert_no_leaked_tasks()

    asyncio.run(go())
