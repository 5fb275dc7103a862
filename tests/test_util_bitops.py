"""Tests for repro.util.bitops."""

import pytest
from hypothesis import given, strategies as st

from repro.util.bitops import chunk_bytes, pad_to_multiple, xor_bytes


class TestXorBytes:
    def test_basic(self):
        assert xor_bytes(b"\x00\xff", b"\xff\xff") == b"\xff\x00"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"ab", b"abc")

    @given(st.binary(min_size=0, max_size=64))
    def test_self_inverse(self, data):
        key = bytes((b + 7) % 256 for b in data)
        assert xor_bytes(xor_bytes(data, key), key) == data


class TestPadToMultiple:
    def test_aligned_unchanged(self):
        assert pad_to_multiple(b"abcd", 4) == b"abcd"

    def test_pads_short(self):
        assert pad_to_multiple(b"abc", 4) == b"abc\x00"

    def test_custom_fill(self):
        assert pad_to_multiple(b"a", 3, fill=0x20) == b"a  "

    def test_empty(self):
        assert pad_to_multiple(b"", 8) == b""

    @given(st.binary(max_size=100), st.integers(min_value=1, max_value=32))
    def test_result_always_aligned(self, data, block):
        assert len(pad_to_multiple(data, block)) % block == 0


class TestChunkBytes:
    def test_even_split(self):
        assert chunk_bytes(b"abcdef", 2) == [b"ab", b"cd", b"ef"]

    def test_ragged_tail(self):
        assert chunk_bytes(b"abcde", 2) == [b"ab", b"cd", b"e"]

    def test_empty(self):
        assert chunk_bytes(b"", 4) == []

    @given(st.binary(max_size=200), st.integers(min_value=1, max_value=17))
    def test_concatenation_roundtrips(self, data, size):
        assert b"".join(chunk_bytes(data, size)) == data

