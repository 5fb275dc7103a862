"""The envelope arena: the one stored form of a cooked document.

A cooked document keeps its packets only as a read-only arena of
fixed-stride ``MSG_FRAME`` envelopes; ``cooked``, ``frames()`` and
``wire_frames()`` are views cut from it on access.  These tests pin
the layout against the reference framing, the read-only contract, the
parity of the fresh, disk-reloaded and aliased forms, and the memory
a cooked document retains.
"""

import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.packets import (
    ENVELOPE_STRIDE_OVERHEAD,
    CookedDocument,
    Packetizer,
    decode_frame,
    encode_frame,
    envelope_stride,
)
from repro.net.wire import MSG_FRAME, encode_message
from repro.prep import DocumentSender
from repro.prep.diskstore import DiskCookedStore
from repro.prep.service import PreparationService

#: Bytes a cooked document may retain beyond its arena: the codec,
#: the CookedDocument and its three view objects, whatever n is.
CONSTANT_OVERHEAD_BYTES = 4096


def payload_of(size, seed=7):
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(size))


def reference_frames(cooked, payload):
    """The frames the per-packet framing path produces for *payload*."""
    packets = cooked.codec.encode(Packetizer(cooked.packet_size).split(payload))
    return [encode_frame(seq, packet) for seq, packet in enumerate(packets)]


def as_bytes(views):
    return [bytes(view) for view in views]


class TestLayout:
    def test_stride_is_payload_plus_envelope_and_frame_overhead(self):
        assert ENVELOPE_STRIDE_OVERHEAD == 9
        assert envelope_stride(256) == 265

    @pytest.mark.parametrize("systematic", [True, False])
    def test_views_match_the_reference_framing(self, systematic):
        payload = payload_of(1000)
        cooked = Packetizer(packet_size=64, systematic=systematic).cook(payload)
        frames = reference_frames(cooked, payload)
        assert as_bytes(cooked.frames()) == frames
        assert as_bytes(cooked.cooked) == [frame[2:-2] for frame in frames]
        assert as_bytes(cooked.wire_frames()) == [
            encode_message(MSG_FRAME, frame) for frame in frames
        ]
        assert len(cooked.arena) == cooked.n * envelope_stride(64)

    def test_span_is_the_concatenated_envelopes(self):
        cooked = Packetizer(packet_size=16).cook(payload_of(200))
        envelopes = cooked.wire_frames()
        assert bytes(envelopes.span(2, 7)) == b"".join(
            bytes(envelopes[i]) for i in range(2, 7)
        )
        assert bytes(envelopes.span(0, cooked.n)) == bytes(cooked.arena)
        assert len(envelopes.span(3, 3)) == 0
        for start, stop in ((-1, 2), (3, 2), (0, cooked.n + 1)):
            with pytest.raises(IndexError):
                envelopes.span(start, stop)

    def test_indexing_and_equality(self):
        cooked = Packetizer(packet_size=16).cook(payload_of(100))
        frames = cooked.frames()
        assert bytes(frames[-1]) == bytes(frames[cooked.n - 1])
        with pytest.raises(IndexError):
            frames[cooked.n]
        assert frames == as_bytes(frames)
        assert frames != as_bytes(frames)[:-1]
        assert decode_frame(frames[3]).sequence == 3
        other = Packetizer(packet_size=16).cook(payload_of(100, seed=8))
        assert frames != other.frames()

    def test_views_are_cached(self):
        cooked = Packetizer(packet_size=16).cook(payload_of(100))
        assert cooked.frames() is cooked.frames()
        assert cooked.wire_frames() is cooked.wire_frames()

    def test_constructor_rejects_an_arena_of_the_wrong_length(self):
        cooked = Packetizer(packet_size=16).cook(payload_of(100))
        with pytest.raises(ValueError, match="arena"):
            CookedDocument(
                cooked.original_size, 16, cooked.codec, bytes(cooked.arena)[:-1]
            )


class TestReadOnly:
    def test_every_served_view_rejects_writes(self):
        cooked = Packetizer(packet_size=64).cook(payload_of(500))
        views = [
            cooked.arena,
            cooked.cooked[0],
            cooked.frames()[1],
            cooked.wire_frames()[2],
            cooked.wire_frames().span(0, 3),
        ]
        for view in views:
            with pytest.raises(TypeError):
                view[0] = 0xFF


class TestParity:
    @given(
        size=st.integers(min_value=1, max_value=3000),
        packet_size=st.sampled_from([16, 64, 256]),
        gamma=st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0]),
        systematic=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_fresh_disk_and_alias_expose_identical_bytes(
        self, tmp_path_factory, size, packet_size, gamma, systematic, seed
    ):
        payload = payload_of(size, seed)
        sender = DocumentSender(
            Packetizer(packet_size, redundancy_ratio=gamma, systematic=systematic)
        )
        fresh = sender.prepare_raw("doc", payload)
        store = DiskCookedStore(tmp_path_factory.mktemp("bundles"))
        key = ("digest", size, packet_size, gamma, systematic, seed)
        store.put(key, fresh)
        reloaded = store.get(key)
        assert reloaded is not None
        alias = PreparationService._with_id(fresh, "alias")
        assert alias.cooked is fresh.cooked

        expected = (
            as_bytes(fresh.cooked.cooked),
            as_bytes(fresh.frames()),
            as_bytes(fresh.wire_frames()),
        )
        assert expected[1] == reference_frames(fresh.cooked, payload)
        for prepared in (reloaded, alias):
            assert (
                as_bytes(prepared.cooked.cooked),
                as_bytes(prepared.frames()),
                as_bytes(prepared.wire_frames()),
            ) == expected
            assert prepared.wire_bytes == len(fresh.cooked.arena)

        rng = random.Random(seed)
        for prepared in (fresh, reloaded):
            cooked = prepared.cooked
            keep = rng.sample(range(cooked.n), cooked.m)
            assert cooked.reassemble({i: cooked.cooked[i] for i in keep}) == payload


class TestFootprint:
    @staticmethod
    def retained_by_cook(packetizer, payload):
        """Traced bytes still held after cooking (and viewing) *payload*."""
        packetizer.cook(payload)  # warm the shared generator/row caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cooked = packetizer.cook(payload)
            cooked.frames()
            cooked.wire_frames()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        return cooked, retained

    @pytest.mark.parametrize("size", [40, 4000, 10880])
    def test_retained_bytes_are_the_arena_plus_a_constant(self, size):
        packetizer = Packetizer(packet_size=64, redundancy_ratio=1.5)
        cooked, retained = self.retained_by_cook(packetizer, payload_of(size))
        assert len(cooked.arena) <= retained
        assert retained <= len(cooked.arena) + CONSTANT_OVERHEAD_BYTES, (
            cooked.n,
            retained - len(cooked.arena),
        )
