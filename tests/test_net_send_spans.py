"""The span-based vectored send path, checked against a join reference.

``_BoundedSender.send_many`` queues each batch of consecutive
sequences as one slice of the cooked document's envelope arena and
joins only batches broken by resume gaps.  Its batches must be the
ones the greedy join-per-batch path formed, byte for byte, so
``batches_per_fetch`` and the bytes on the wire do not move.
Socket-free: a recording writer stands in for the stream, so these
run in tier-1.
"""

import asyncio
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.server import _BoundedSender

from tests.netutil import make_prepared


class RecordingWriter:
    """The two ``StreamWriter`` methods the sender uses."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(data)

    async def drain(self):
        pass


def reference_batches(chunks, batch_bytes):
    """The join-per-batch send path: greedy grouping, one join each."""
    batches, group, size = [], [], 0
    for chunk in chunks:
        if group and size + len(chunk) > batch_bytes:
            batches.append(b"".join(group))
            group, size = [], 0
        group.append(chunk)
        size += len(chunk)
    if group:
        batches.append(b"".join(group))
    return batches


def send(envelopes, sequences, batch_bytes):
    """Run one ``send_many``; returns (socket writes, batches, bytes)."""
    async def go():
        writer = RecordingWriter()
        sender = _BoundedSender(writer, capacity=4, batch_bytes=batch_bytes)
        batches, total = await sender.send_many(envelopes, sequences)
        await sender.flush()
        await sender.close()
        return writer.writes, batches, total

    return asyncio.run(go())


@given(
    size=st.integers(min_value=1, max_value=4000),
    packet_size=st.sampled_from([16, 64, 256]),
    batch_bytes=st.integers(min_value=1, max_value=4096),
    skip_fraction=st.sampled_from([0.0, 0.1, 0.5, 0.9]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_span_batches_match_the_join_reference(
    size, packet_size, batch_bytes, skip_fraction, seed
):
    prepared, _payload = make_prepared(size=size, packet_size=packet_size, seed=seed)
    envelopes = prepared.wire_frames()
    rng = random.Random(seed)
    sequences = [s for s in range(prepared.n) if rng.random() >= skip_fraction]

    writes, batches, total = send(envelopes, sequences, batch_bytes)

    expected = reference_batches([bytes(envelopes[s]) for s in sequences], batch_bytes)
    assert [bytes(data) for data in writes] == expected
    assert batches == len(expected)
    assert total == sum(len(batch) for batch in expected)


def test_a_batch_of_one_run_is_a_read_only_arena_slice():
    prepared, _payload = make_prepared(size=2048, packet_size=64)
    envelopes = prepared.wire_frames()
    writes, batches, _ = send(envelopes, range(prepared.n), 5 * envelopes.stride)
    assert batches == len(writes) == -(-prepared.n // 5)
    for data in writes:
        assert isinstance(data, memoryview) and data.readonly
        assert data.obj is prepared.cooked.arena.obj


def test_a_batch_split_by_a_gap_is_joined():
    prepared, _payload = make_prepared(size=2048, packet_size=64)
    envelopes = prepared.wire_frames()
    writes, batches, _ = send(envelopes, [0, 1, 3, 4], 1 << 16)
    assert batches == 1
    assert isinstance(writes[0], bytes)
    assert writes[0] == b"".join(bytes(envelopes[s]) for s in (0, 1, 3, 4))
