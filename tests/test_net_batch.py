"""Batched frame serving: coalescing equivalence + byte backpressure.

The server's one send path coalesces every frame of a round into at
most ``ceil(round_bytes / send_batch_bytes)`` socket writes
(``send_batch_bytes=1`` degenerates to one write per frame).  These tests
pin the two contracts that make that safe to ship:

* **equivalence** — under an identical chaos seed, a client decodes
  byte-identical payloads whether the server wrote one frame per
  syscall or coalesced the whole round (the wire grammar is
  length-prefixed, so message boundaries survive any write split);
* **bounded memory** — a stalled reader holds at most
  ``send_queue_frames x send_batch_bytes`` queued bytes (plus one
  oversized-envelope allowance), the byte-denominated sibling of the
  frame-count bound the unbatched path already guaranteed.
"""

import asyncio
import math
import random

import pytest

from repro.channel import IIDModel
from repro.net import (
    ChaosProxy,
    DocumentStore,
    MSG_DONE,
    MSG_HELLO,
    MSG_MANIFEST,
    MSG_ROUND_END,
    NetClient,
    NetServer,
    encode_json,
    read_expected,
    read_message,
)
from repro.net.server import SEND_BATCH_BYTES
from repro.net.wire import MSG_FRAME
from repro.transport.cache import PacketCache

from tests.netutil import assert_no_leaked_tasks, make_prepared

pytestmark = pytest.mark.net

CHAOS_SEED = 1337


def make_store(**kwargs):
    prepared, payload = make_prepared(**kwargs)
    store = DocumentStore()
    store.add(prepared)
    return store, prepared, payload


async def _fetch_under_chaos(**server_options):
    """One chaotic fetch against a server built with *server_options*."""
    store, prepared, payload = make_store(size=4096, packet_size=64)
    async with NetServer(store, **server_options) as server:
        async with ChaosProxy(
            server.host,
            server.port,
            model=IIDModel(rng=random.Random(CHAOS_SEED), corrupt=0.15),
        ) as proxy:
            client = NetClient(proxy.host, proxy.port, cache=PacketCache())
            result = await client.fetch("doc")
        stats = dict(server.stats)
    await assert_no_leaked_tasks()
    return result, stats, payload, prepared


def test_batched_and_unbatched_decode_identically():
    """Same chaos seed, coalesced vs one-frame writes: identical decodes.

    The chaos proxy corrupts per *message* (it re-parses envelopes off
    its upstream), so an identical rng seed lands identical faults on
    both runs regardless of how the server grouped its writes.
    """

    async def go():
        batched, batched_stats, payload, prepared = await _fetch_under_chaos()
        # A one-byte batch bound still carries one frame per write:
        # the unbatched reference.
        plain, plain_stats, payload2, _ = await _fetch_under_chaos(
            send_batch_bytes=1
        )
        assert payload == payload2  # same deterministic document

        assert batched.status == "decoded"
        assert plain.status == "decoded"
        assert batched.payload == plain.payload == payload

        # The unbatched path wrote one "batch" per frame; the batched
        # path must have actually coalesced (fewer writes than frames).
        assert plain_stats["batches_sent"] == plain_stats["frames_sent"]
        assert 0 < batched_stats["batches_sent"] < batched_stats["frames_sent"]

    asyncio.run(go())


def test_slow_reader_bounds_queued_bytes_under_batching():
    """A stalled reader holds a bounded number of queued *bytes*."""

    async def go():
        store, prepared, _ = make_store(size=8192, packet_size=64)
        capacity, batch_bytes = 4, 512
        async with NetServer(
            store,
            round_timeout=10.0,
            send_queue_frames=capacity,
            send_batch_bytes=batch_bytes,
        ) as server:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(encode_json(MSG_HELLO, {"doc": "doc", "have": []}))
            await writer.drain()
            await asyncio.sleep(0.3)  # stall before reading anything
            _, manifest_body = await read_expected(reader, MSG_MANIFEST)
            frames = 0
            while True:
                msg_type, _ = await read_message(reader)
                if msg_type == MSG_FRAME:
                    frames += 1
                elif msg_type == MSG_ROUND_END:
                    break
            assert frames == prepared.n  # the transfer still completes
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
        # The queue holds at most `capacity` entries; each is a
        # coalesced batch of at most batch_bytes, except a single
        # chunk larger than the cap (here: the JSON manifest) which
        # travels alone at its full size.
        largest_envelope = max(len(v) for v in prepared.wire_frames())
        assert largest_envelope <= batch_bytes  # frames all coalesce
        manifest_envelope = len(manifest_body) + 5
        bound = capacity * batch_bytes + max(0, manifest_envelope - batch_bytes)
        assert 0 < server.stats["sendq_high_water_bytes"] <= bound
        assert server.stats["sendq_high_water"] <= capacity
        await assert_no_leaked_tasks()

    asyncio.run(go())


def test_batch_metrics_emitted():
    """The server's stats account for every coalesced frame and write,
    with telemetry on: the OBS registry keeps no second count."""
    from repro import obs

    async def go():
        store, prepared, payload = make_store(size=2048, packet_size=64)
        async with NetServer(store) as server:
            client = NetClient(server.host, server.port, cache=PacketCache())
            result = await client.fetch("doc")
        assert result.status == "decoded"
        assert result.payload == payload
        stats = dict(server.stats)
        await assert_no_leaked_tasks()
        return stats, prepared

    obs.enable()
    try:
        stats, prepared = asyncio.run(go())
        per_batch = max(1, SEND_BATCH_BYTES // prepared.wire_frames().stride)
        assert stats["frames_sent"] == prepared.n  # one clean round
        assert stats["batches_sent"] == math.ceil(prepared.n / per_batch)
        assert not [name for name in obs.OBS.metrics.names() if name.startswith("net.send")]
    finally:
        obs.disable()
