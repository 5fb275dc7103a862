"""Hostile ``HELLO`` ``prep`` fields are refused before any cook.

A peer names the document and the preparation parameters; it never
names the server's GF(2^8) kernel (a process setting) and never asks
for a packet size whose frames cannot fit one wire envelope.  Each
such ``HELLO`` gets one ``ERROR`` (``bad_request``), counts once in
``stats["errors"]`` and leaves the cooked tier untouched.  A packet
size too small for the document (more than 255 packets) is refused the
same way once the cook knows the document's size, and a registered
document whose source does not parse gets ``bad_document``.  Marked
``net``.
"""

import asyncio

import pytest

from repro.coding.packets import MAX_PACKET_SIZE
from repro.data import draft_paper_path
from repro.net import NetClient, NetServer
from repro.net.wire import MSG_ERROR, MSG_HELLO, decode_json, encode_json, read_message

from tests.netutil import assert_no_leaked_tasks
from tests.test_prep_service import OTHER, PAPER, make_service

pytestmark = [pytest.mark.net]

HOSTILE = [
    pytest.param({"backend": "numpy"}, id="kernel-numpy"),
    pytest.param({"backend": "bogus"}, id="kernel-bogus"),
    pytest.param({"backend": "native"}, id="kernel-native"),
    pytest.param({"packet_size": 4194304}, id="packet-size-4MiB"),
    pytest.param({"packet_size": MAX_PACKET_SIZE + 1}, id="packet-size-over-bound"),
]


async def hello(server, prep, doc="doc"):
    """Send one HELLO carrying *prep*; return the first reply."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        writer.write(encode_json(MSG_HELLO, {"doc": doc, "have": [], "prep": prep}))
        await writer.drain()
        return await read_message(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@pytest.mark.parametrize("prep", HOSTILE)
def test_hostile_prep_field_is_a_bad_request(prep):
    service, _ = make_service()
    service.add_document("doc", PAPER)

    async def go():
        async with NetServer(service) as server:
            warm = await NetClient(server.host, server.port).fetch("doc")
            assert warm.payload
            errors = server.stats["errors"]
            misses = service.stats["cooked_misses"]
            msg_type, body = await hello(server, prep)
            assert msg_type == MSG_ERROR
            assert "bad prep parameters" in decode_json(body)["message"]
            assert server.stats["errors"] == errors + 1
            assert service.stats["cooked_misses"] == misses
            # The refusal leaves the server serving.
            again = await NetClient(server.host, server.port).fetch("doc")
            assert again.payload == warm.payload
            assert service.stats["cooked_misses"] == misses
        await assert_no_leaked_tasks()

    asyncio.run(go())


def test_packet_size_too_small_for_the_document_is_a_bad_request():
    """8-byte packets split the bundled paper into 1038 > 255 packets."""
    service, _ = make_service()
    service.add_path(draft_paper_path(), document_id="doc")

    async def go():
        async with NetServer(service) as server:
            warm = await NetClient(server.host, server.port).fetch("doc")
            errors = server.stats["errors"]
            entries = service.cache_info()["cooked"]["entries"]
            msg_type, body = await hello(server, {"packet_size": 8})
            assert msg_type == MSG_ERROR
            message = decode_json(body)["message"]
            assert "bad prep parameters" in message and "at most 255" in message
            assert server.stats["errors"] == errors + 1
            assert service.cache_info()["cooked"]["entries"] == entries
            again = await NetClient(server.host, server.port).fetch("doc")
            assert again.payload == warm.payload
        await assert_no_leaked_tasks()

    asyncio.run(go())


def test_document_that_does_not_parse_is_a_bad_document():
    """A character reference outside XML ``Char`` fails the parse."""
    service, _ = make_service()
    service.add_document("doc", PAPER)
    service.add_document("broken", "<paper><title>T &#0; x</title></paper>")

    async def go():
        async with NetServer(service) as server:
            warm = await NetClient(server.host, server.port).fetch("doc")
            errors = server.stats["errors"]
            msg_type, body = await hello(server, {}, doc="broken")
            assert msg_type == MSG_ERROR
            message = decode_json(body)["message"]
            assert "cannot be prepared" in message and "not an XML character" in message
            assert server.stats["errors"] == errors + 1
            again = await NetClient(server.host, server.port).fetch("doc")
            assert again.payload == warm.payload
        await assert_no_leaked_tasks()

    asyncio.run(go())


def test_file_changed_on_disk_is_a_bad_document(tmp_path):
    """A path-backed file edited without ``invalidate()`` fails its rebuild.

    With a one-byte SC budget every cooked miss rebuilds the SC from
    the file, and the edited file no longer hashes to its digest.
    """
    target = tmp_path / "edited.xml"
    target.write_text(OTHER, encoding="utf-8")
    service, _ = make_service(sc_budget_bytes=1)
    service.add_document("doc", PAPER)
    service.add_path(target)

    async def go():
        async with NetServer(service) as server:
            warm = await NetClient(server.host, server.port).fetch("doc")
            assert (await NetClient(server.host, server.port).fetch("edited")).payload
            target.write_text(OTHER.replace("Caching", "Hoarding"), encoding="utf-8")
            errors = server.stats["errors"]
            msg_type, body = await hello(server, {"lod": "section"}, doc="edited")
            assert msg_type == MSG_ERROR
            message = decode_json(body)["message"]
            assert "cannot be prepared" in message and "changed on disk" in message
            assert server.stats["errors"] == errors + 1
            again = await NetClient(server.host, server.port).fetch("doc")
            assert again.payload == warm.payload
        await assert_no_leaked_tasks()

    asyncio.run(go())
