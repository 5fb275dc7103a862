"""Tests for packet framing and the document packetizer."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.packets import (
    FRAME_OVERHEAD,
    Packetizer,
    decode_frame,
    encode_frame,
)


class TestFrames:
    def test_roundtrip(self):
        wire = encode_frame(17, b"payload")
        frame = decode_frame(wire)
        assert frame.intact
        assert frame.sequence == 17
        assert frame.payload == b"payload"

    def test_overhead_is_table2_value(self):
        """Table 2: overhead O = 4 bytes (CRC + sequence number)."""
        assert FRAME_OVERHEAD == 4
        wire = encode_frame(0, b"x" * 256)
        assert len(wire) == 260

    def test_sequence_range(self):
        encode_frame(0, b"")
        encode_frame(0xFFFF, b"")
        with pytest.raises(ValueError):
            encode_frame(-1, b"")
        with pytest.raises(ValueError):
            encode_frame(0x10000, b"")

    @given(st.binary(min_size=5, max_size=64), st.integers(min_value=0, max_value=60))
    def test_corruption_detected(self, payload, position):
        wire = bytearray(encode_frame(3, payload))
        position %= len(wire)
        wire[position] ^= 0x55
        frame = decode_frame(bytes(wire))
        assert not frame.intact or frame.payload == payload

    def test_truncated_frame(self):
        frame = decode_frame(b"ab")
        assert not frame.intact
        assert frame.sequence == -1

    def test_empty_payload(self):
        frame = decode_frame(encode_frame(9, b""))
        assert frame.intact and frame.payload == b""


class TestPacketizer:
    def test_raw_packet_count_table2(self):
        """M = ⌈10240 / 256⌉ = 40 (Table 2)."""
        packetizer = Packetizer(packet_size=256)
        assert packetizer.raw_packet_count(10240) == 40

    def test_raw_packet_count_rounds_up(self):
        packetizer = Packetizer(packet_size=256)
        assert packetizer.raw_packet_count(10241) == 41
        assert packetizer.raw_packet_count(1) == 1

    def test_more_than_255_raw_packets_is_a_value_error(self):
        """GF(2^8) has no code past 255 packets: the packet size is refused."""
        packetizer = Packetizer(packet_size=8)
        assert packetizer.raw_packet_count(8 * 255) == 255
        with pytest.raises(ValueError, match="at most 255"):
            packetizer.raw_packet_count(8 * 255 + 1)
        with pytest.raises(ValueError, match="M=1038"):
            packetizer.cook(bytes(8302))

    def test_cooked_count_gamma(self):
        """N = ⌈γ·M⌉ = 60 at Table 2 defaults."""
        packetizer = Packetizer(packet_size=256, redundancy_ratio=1.5)
        assert packetizer.cooked_packet_count(40) == 60

    def test_cooked_count_clamped_to_field(self):
        packetizer = Packetizer(packet_size=64, redundancy_ratio=3.0)
        assert packetizer.cooked_packet_count(100) == 255

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError):
            Packetizer(redundancy_ratio=0.9)

    def test_split_pads_final_packet(self):
        packetizer = Packetizer(packet_size=4)
        packets = packetizer.split(b"abcdefg")
        assert packets == [b"abcd", b"efg\x00"]

    @given(st.binary(min_size=1, max_size=2000))
    @settings(max_examples=25, deadline=None)
    def test_cook_reassemble_roundtrip(self, document):
        packetizer = Packetizer(packet_size=128, redundancy_ratio=1.5)
        cooked = packetizer.cook(document)
        rng = random.Random(0)
        keep = rng.sample(range(cooked.n), cooked.m)
        received = {i: cooked.cooked[i] for i in keep}
        assert cooked.reassemble(received) == document

    def test_frames_in_sequence_order(self):
        packetizer = Packetizer(packet_size=64)
        cooked = packetizer.cook(b"z" * 200)
        frames = cooked.frames()
        assert len(frames) == cooked.n
        sequences = [decode_frame(w).sequence for w in frames]
        assert sequences == list(range(cooked.n))

    def test_clear_prefix_contiguous_only(self):
        packetizer = Packetizer(packet_size=4, redundancy_ratio=2.0)
        cooked = packetizer.cook(b"abcdefgh")  # m = 2
        assert cooked.clear_prefix({0: cooked.cooked[0]}) == b"abcd"
        # A gap at 0 yields nothing even when packet 1 arrived.
        assert cooked.clear_prefix({1: cooked.cooked[1]}) == b""
        full = cooked.clear_prefix({0: cooked.cooked[0], 1: cooked.cooked[1]})
        assert full == b"abcdefgh"

    def test_clear_prefix_trims_padding(self):
        packetizer = Packetizer(packet_size=4, redundancy_ratio=2.0)
        cooked = packetizer.cook(b"abcde")  # padded to 8
        received = {0: cooked.cooked[0], 1: cooked.cooked[1]}
        assert cooked.clear_prefix(received) == b"abcde"

    def test_non_systematic_has_no_clear_prefix(self):
        packetizer = Packetizer(packet_size=4, systematic=False)
        cooked = packetizer.cook(b"abcdefgh")
        assert cooked.clear_prefix({0: cooked.cooked[0], 1: cooked.cooked[1]}) == b""
