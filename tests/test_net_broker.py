"""Broker network mode: the prototype ORB behind the shared server builder.

``repro net serve --via-broker`` serves a :class:`BrokerDocumentStore`
through :func:`repro.net.workers.build_server`, the same builder every
other serving stack uses.  Over real sockets a fetch must decode to
exactly what an in-process transmitter fetch prepares, cost one broker
invocation, and an unknown id must get the server's ``unknown
document`` reply.  Marked ``net``.
"""

import asyncio

import pytest

from repro.net import NetClient, WireError
from repro.net.workers import WorkerConfig, build_server
from repro.prep import PrepRequest
from repro.prototype.broker import ObjectRequestBroker
from repro.prototype.messages import FetchRequest
from repro.prototype.netmode import BrokerDocumentStore
from repro.prototype.server import DatabaseGateway, DocumentTransmitterService

from tests.netutil import assert_no_leaked_tasks
from tests.test_prep_service import PAPER

pytestmark = [pytest.mark.net]

REQUEST = PrepRequest(query="mobile web", packet_size=64, gamma=1.5)


def make_gateway():
    gateway = DatabaseGateway()
    gateway.put("paper", PAPER)
    return gateway


def in_process_payload(gateway):
    """The payload a direct (socket-free) transmitter fetch prepares."""
    transmitter = DocumentTransmitterService(gateway, packet_size=64)
    _manifest, prepared = transmitter.fetch(
        FetchRequest(
            document_id="paper",
            query_text=REQUEST.query,
            lod_name=REQUEST.lod,
            gamma=REQUEST.gamma,
            packet_size=REQUEST.packet_size,
            measure=REQUEST.measure,
        )
    )
    cooked = prepared.cooked
    return cooked.reassemble({i: cooked.cooked[i] for i in range(cooked.m)})


def test_broker_store_served_through_the_shared_builder():
    gateway = make_gateway()
    broker = ObjectRequestBroker()
    broker.register(
        "transmitter", DocumentTransmitterService(gateway, packet_size=64)
    )
    store = BrokerDocumentStore(broker, request=REQUEST)
    expected = in_process_payload(gateway)

    async def go():
        server = build_server(WorkerConfig(port=0, reuse_port=False), store)
        await server.start()
        try:
            before = broker.invocations
            first = await NetClient(server.host, server.port).fetch("paper")
            assert broker.invocations == before + 1
            second = await NetClient(server.host, server.port).fetch("paper")
            assert broker.invocations == before + 2

            with pytest.raises(WireError, match="unknown document 'nope'"):
                await NetClient(server.host, server.port).fetch("nope")
            assert server.stats["errors"] == 1
        finally:
            await server.stop()
        await assert_no_leaked_tasks()
        return first, second

    first, second = asyncio.run(go())
    assert first.status == second.status == "decoded"
    assert first.payload == second.payload == expected
