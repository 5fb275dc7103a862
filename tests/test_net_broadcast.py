"""End-to-end carousel delivery over real sockets.  Marked ``net``.

The acceptance criteria this file pins:

* a client selecting ``DeliveryMode.CAROUSEL`` (via the request or the
  settings object) subscribes to the shared broadcast channel and
  reconstructs bytes identical to a unicast fetch;
* the shared stream really is shared — N subscribers ride the same
  cycles instead of multiplying the server's airtime;
* a server without a carousel refuses carousel requests through the
  ordinary bad-parameter wire-error path;
* loss between server and subscriber (chaos proxy) costs extra
  cycles, never correctness.
"""

import asyncio
import random

import pytest

from repro.broadcast import CarouselScheduler
from repro.channel import IIDModel
from repro.coding.packets import Packetizer
from repro.net import ChaosProxy, DocumentStore, NetClient, NetServer, WireError
from repro.net.loadgen import run_loadgen
from repro.prep.prepare import DocumentSender
from repro.prep.request import DeliveryMode, PrepRequest, TransferSettings

from tests.netutil import assert_no_leaked_tasks

pytestmark = [pytest.mark.net]

CAROUSEL = PrepRequest(delivery=DeliveryMode.CAROUSEL)


def make_store(size=2048, packet_size=64, seed=5):
    payload = bytes(random.Random(seed).randrange(256) for _ in range(size))
    sender = DocumentSender(Packetizer(packet_size=packet_size, redundancy_ratio=1.5))
    prepared = sender.prepare_raw("doc", payload)
    store = DocumentStore()
    store.add(prepared)
    return store, prepared, payload


def make_carousel(*prepared_docs):
    scheduler = CarouselScheduler()
    for hotness, prepared in enumerate(reversed(prepared_docs), start=1):
        scheduler.add_document(prepared, hotness)
    return scheduler


class TestCarouselFetch:
    def test_request_mode_decodes_byte_identical_to_unicast(self):
        store, prepared, payload = make_store()

        async def go():
            async with NetServer(store, carousel=make_carousel(prepared)) as server:
                client = NetClient(server.host, server.port)
                unicast = await client.fetch("doc")
                carousel = await client.fetch("doc", request=CAROUSEL)
            await assert_no_leaked_tasks()
            return unicast, carousel

        unicast, carousel = asyncio.run(go())
        assert unicast.status == "decoded"
        assert carousel.status == "decoded"
        assert carousel.payload == unicast.payload == payload

    def test_settings_mode_promotes_the_request(self):
        store, prepared, payload = make_store()

        async def go():
            async with NetServer(store, carousel=make_carousel(prepared)) as server:
                client = NetClient(
                    server.host,
                    server.port,
                    settings=TransferSettings(delivery=DeliveryMode.CAROUSEL),
                )
                return await client.fetch("doc")

        result = asyncio.run(go())
        assert result.status == "decoded"
        assert result.payload == payload

    def test_subscribers_share_one_stream(self):
        store, prepared, payload = make_store()

        async def go():
            async with NetServer(store, carousel=make_carousel(prepared)) as server:
                report, results = await run_loadgen(
                    server.host, server.port, "doc",
                    clients=8, request=CAROUSEL,
                )
                # Server-side teardown trails the clients' returns by a
                # few scheduler ticks; wait for the gauge to drain.
                for _ in range(100):
                    stats = server.stats_snapshot()
                    if stats["broadcast"]["subscribers"] == 0:
                        break
                    await asyncio.sleep(0.01)
            await assert_no_leaked_tasks()
            return report, results, stats

        report, results, stats = asyncio.run(go())
        assert report.decoded == 8
        assert all(r is not None and r.payload == payload for r in results)
        broadcast = stats["broadcast"]
        assert broadcast["enabled"] is True
        assert broadcast["subscriptions"] == 8
        assert broadcast["subscribers"] == 0      # all done and gone
        # One shared stream: eight clean-channel subscribers cost a
        # few cycles, nowhere near 8x a lone subscriber's airtime.
        assert broadcast["cycles_aired"] <= 8

    def test_lossy_subscription_still_decodes(self):
        store, prepared, payload = make_store()

        async def go():
            async with NetServer(store, carousel=make_carousel(prepared)) as server:
                async with ChaosProxy(
                    server.host,
                    server.port,
                    model=IIDModel(rng=random.Random(17), corrupt=0.2),
                ) as proxy:
                    client = NetClient(proxy.host, proxy.port)
                    result = await client.fetch("doc", request=CAROUSEL)
                stats = server.stats_snapshot()
            await assert_no_leaked_tasks()
            return result, stats

        result, stats = asyncio.run(go())
        assert result.status == "decoded"
        assert result.payload == payload
        # Corruption costs cycles (rounds), never correctness.
        assert result.rounds >= 1


class TestCarouselRefusals:
    def test_unicast_only_server_refuses_carousel_requests(self):
        store, _prepared, _payload = make_store()

        async def go():
            async with NetServer(store) as server:
                client = NetClient(server.host, server.port)
                with pytest.raises(WireError, match="carousel"):
                    await client.fetch("doc", request=CAROUSEL)
                # The refusal is the bad-parameter path, not a hang:
                # the same client immediately fetches unicast.
                return await client.fetch("doc")

        result = asyncio.run(go())
        assert result.status == "decoded"

    def test_document_missing_from_carousel_is_a_wire_error(self):
        store, prepared, _payload = make_store()
        other = DocumentSender(
            Packetizer(packet_size=64, redundancy_ratio=1.5)
        ).prepare_raw("other", b"y" * 512)
        store.add(other)

        async def go():
            # Carousel airs only "doc"; "other" is served unicast-only.
            async with NetServer(store, carousel=make_carousel(prepared)) as server:
                client = NetClient(server.host, server.port)
                with pytest.raises(WireError, match="not on the carousel"):
                    await client.fetch("other", request=CAROUSEL)
                return await client.fetch("other")

        result = asyncio.run(go())
        assert result.status == "decoded"
