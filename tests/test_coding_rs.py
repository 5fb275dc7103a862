"""Tests for the erasure codecs: the any-M-of-N reconstruction property."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.coding.backend import available_backends
from repro.coding.gf256 import gf_mul
from repro.coding.matrix import GFMatrix
from repro.coding.rs import (
    MAX_COOKED,
    CodecError,
    RabinDispersal,
    SystematicRSCodec,
    _decode_rows,
    _encode_rows,
    _generator_matrix,
    codec_for,
)
from repro.prep.reconstruct import reconstruct_payload


def random_packets(rng: random.Random, m: int, size: int):
    return [bytes(rng.randrange(256) for _ in range(size)) for _ in range(m)]


class TestConfiguration:
    def test_n_less_than_m_rejected(self):
        with pytest.raises(CodecError):
            SystematicRSCodec(5, 4)

    def test_n_above_field_limit_rejected(self):
        with pytest.raises(CodecError):
            SystematicRSCodec(10, 256)

    def test_max_cooked_boundary_allowed(self):
        SystematicRSCodec(10, MAX_COOKED)

    def test_n_equals_m_degenerates_to_identity(self):
        codec = SystematicRSCodec(3, 3)
        raw = [b"aa", b"bb", b"cc"]
        assert codec.encode(raw) == raw


class TestSystematicProperty:
    def test_clear_text_prefix(self):
        rng = random.Random(0)
        codec = SystematicRSCodec(6, 11)
        raw = random_packets(rng, 6, 32)
        cooked = codec.encode(raw)
        assert cooked[:6] == raw

    def test_indices_helpers(self):
        codec = SystematicRSCodec(4, 7)
        assert list(codec.clear_text_indices()) == [0, 1, 2, 3]
        assert list(codec.redundancy_indices()) == [4, 5, 6]

    def test_rabin_is_not_systematic(self):
        rng = random.Random(1)
        codec = RabinDispersal(4, 8)
        raw = random_packets(rng, 4, 16)
        cooked = codec.encode(raw)
        # With high probability no cooked packet equals a raw one
        # (row 0 of the Vandermonde is all-ones, a checksum of rows).
        assert cooked[:4] != raw


def elementary_transform_generator(m: int, n: int) -> GFMatrix:
    """The paper's construction, literally: V · V_top⁻¹ by elimination."""
    vandermonde = GFMatrix.vandermonde(n, m)
    top = GFMatrix(vandermonde.rows()[:m])
    return vandermonde.multiply(top.inverse())


class TestClosedFormGenerator:
    """The Lagrange-form generator equals the elementary-transform one.

    Row i of G(m, n) does not depend on n, so checking n = 255 checks
    every n for that m.
    """

    @pytest.mark.parametrize("m", range(1, 65))
    def test_matches_elementary_transform(self, m):
        assert _generator_matrix(m, MAX_COOKED, True) == (
            elementary_transform_generator(m, MAX_COOKED)
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("m", [100, 130, 170, 255])
    def test_matches_elementary_transform_large_m(self, m):
        assert _generator_matrix(m, MAX_COOKED, True) == (
            elementary_transform_generator(m, MAX_COOKED)
        )

    @pytest.mark.parametrize("n", [20, 21, 30, 100])
    def test_rows_do_not_depend_on_n(self, n):
        full = _generator_matrix(20, MAX_COOKED, True).rows()
        assert _generator_matrix(20, n, True).rows() == full[:n]

    def test_rabin_generator_is_plain_vandermonde(self):
        assert _generator_matrix(7, 12, False) == GFMatrix.vandermonde(12, 7)


def sample_shapes(count=24, seed=11):
    """Seeded (m, n) shapes, with the edges m = 1, n = m and n = 255."""
    rng = random.Random(seed)
    shapes = {(1, 1), (1, 2), (1, MAX_COOKED), (9, 9), (33, MAX_COOKED)}
    shapes.add((MAX_COOKED, MAX_COOKED))
    while len(shapes) < count:
        m = rng.randrange(1, 80)
        shapes.add((m, rng.randrange(m, MAX_COOKED + 1)))
    return sorted(shapes)


class TestClosedFormEncodeRows:
    """The systematic encoder's rows are the generator's redundancy rows.

    They are written down in closed form, so the serve path builds no
    generator matrix: no elimination, and no matrix held per shape.
    """

    @pytest.mark.parametrize("m, n", sample_shapes())
    def test_equal_the_elementary_transform_rows(self, m, n):
        if m == MAX_COOKED:
            expected = []  # n = m: no redundancy row
        else:
            expected = elementary_transform_generator(m, n).rows()[m:]
        assert [list(row) for row in _encode_rows(m, n, True)] == expected

    @pytest.mark.parametrize("m, n", [(1, 1), (3, 7), (8, 12)])
    def test_rabin_rows_are_every_generator_row(self, m, n):
        assert [list(row) for row in _encode_rows(m, n, False)] == (
            GFMatrix.vandermonde(n, m).rows()
        )

    def test_systematic_encode_and_decode_build_no_matrix(self, monkeypatch):
        built = []
        init = GFMatrix.__init__

        def counting_init(self, rows):
            built.append(len(rows))
            init(self, rows)

        monkeypatch.setattr(GFMatrix, "__init__", counting_init)
        _encode_rows.cache_clear()
        _decode_rows.cache_clear()
        rng = random.Random(3)
        codec = SystematicRSCodec(37, 61)
        raw = random_packets(rng, 37, 16)
        cooked = codec.encode(raw)
        survivors = {i: cooked[i] for i in rng.sample(range(61), 37)}
        assert codec.decode(survivors) == raw
        assert built == []


class TestAnyMofN:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=8),
        st.booleans(),
    )
    def test_random_subsets_reconstruct(self, seed, m, extra, systematic):
        rng = random.Random(seed)
        n = m + extra
        codec_cls = SystematicRSCodec if systematic else RabinDispersal
        codec = codec_cls(m, n)
        raw = random_packets(rng, m, 24)
        cooked = codec.encode(raw)
        keep = rng.sample(range(n), m)
        assert codec.decode({i: cooked[i] for i in keep}) == raw

    def test_every_possible_subset_small_code(self):
        """Exhaustive check for (M=3, N=6): all C(6,3)=20 subsets work."""
        import itertools

        rng = random.Random(7)
        codec = SystematicRSCodec(3, 6)
        raw = random_packets(rng, 3, 8)
        cooked = codec.encode(raw)
        for subset in itertools.combinations(range(6), 3):
            assert codec.decode({i: cooked[i] for i in subset}) == raw

    def test_extra_packets_ignored(self):
        rng = random.Random(3)
        codec = SystematicRSCodec(3, 6)
        raw = random_packets(rng, 3, 8)
        cooked = codec.encode(raw)
        assert codec.decode({i: cooked[i] for i in range(6)}) == raw


def reference_decode(codec, cooked, keep):
    """Decode by the textbook route: invert the chosen generator rows."""
    inverse = codec.generator.submatrix(keep).inverse()
    size = len(cooked[keep[0]])
    raw = []
    for r in range(codec.m):
        row = inverse.row(r)
        out = bytearray(size)
        for coefficient, index in zip(row, keep):
            for b, byte in enumerate(cooked[index]):
                out[b] ^= gf_mul(coefficient, byte)
        raw.append(bytes(out))
    return raw


class TestDecodeMatchesInverse:
    """Both codecs decode as the full-inverse reference does.

    The systematic code solves only the missing clear packets through
    the Lagrange closed form; Rabin's dispersal inverts the chosen
    generator rows.  Either way the output must equal the textbook
    decode of exactly M chosen packets, through ``decode`` and
    ``decode_into`` alike, on every backend.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        m=st.integers(min_value=1, max_value=24),
        extra=st.integers(min_value=0, max_value=MAX_COOKED),
        systematic=st.booleans(),
        backend=st.sampled_from(available_backends()),
    )
    @example(seed=1, m=1, extra=MAX_COOKED - 1, systematic=True, backend="fused")
    @example(seed=2, m=1, extra=MAX_COOKED - 1, systematic=False, backend="fused")
    @example(seed=3, m=40, extra=MAX_COOKED - 40, systematic=True, backend="fused")
    @example(seed=4, m=16, extra=MAX_COOKED - 16, systematic=False, backend="baseline")
    def test_random_erasure_patterns(self, seed, m, extra, systematic, backend):
        rng = random.Random(seed)
        n = min(m + extra, MAX_COOKED)
        codec = codec_for(m, n, systematic, backend)
        raw = random_packets(rng, m, 5)
        cooked = codec.encode(raw)
        keep = sorted(rng.sample(range(n), m))
        expected = reference_decode(codec, cooked, keep)
        assert expected == raw
        assert codec.decode({i: cooked[i] for i in keep}) == expected
        out = bytearray(m * 5)
        assert codec.decode_into({i: cooked[i] for i in keep}, out) == m * 5
        assert bytes(out) == b"".join(expected)
        # Extra intact packets change the chosen set, never the output.
        more = keep + rng.sample(range(n), rng.randint(0, n - m))
        assert codec.decode({i: cooked[i] for i in more}) == expected

    def test_reconstruct_truncates_to_original_size(self):
        codec = SystematicRSCodec(3, 6)
        raw = random_packets(random.Random(8), 3, 8)
        cooked = codec.encode(raw)
        intact = {i: cooked[i] for i in (1, 4, 5)}
        assert codec.reconstruct(intact, 20) == b"".join(raw)[:20]


class TestSharedDecodeMemo:
    """One memo serves every codec of a shape, fresh codecs included."""

    def test_reconstruct_payload_misses_once_then_hits(self):
        codec = SystematicRSCodec(6, 10)
        raw = random_packets(random.Random(21), 6, 16)
        cooked = codec.encode(raw)
        intact = {i: cooked[i] for i in (0, 2, 3, 5, 7, 9)}
        document = b"".join(raw)[:90]
        _decode_rows.cache_clear()
        for expected_hits in (0, 1):
            assert reconstruct_payload(6, 10, 90, intact, systematic=True) == document
            info = _decode_rows.cache_info()
            assert (info.misses, info.hits) == (1, expected_hits)

    def test_systematic_rows_cover_only_missing_clear_packets(self):
        targets, rows = _decode_rows(6, 10, True, (0, 2, 3, 5, 7, 9))
        assert targets == (1, 4)
        assert len(rows) == 2 and all(len(row) == 6 for row in rows)
        assert _decode_rows(6, 10, True, tuple(range(6))) == ((), ())


class TestDecodeErrors:
    def test_too_few_packets(self):
        codec = SystematicRSCodec(4, 6)
        raw = random_packets(random.Random(0), 4, 8)
        cooked = codec.encode(raw)
        with pytest.raises(CodecError, match="at least 4"):
            codec.decode({0: cooked[0], 1: cooked[1], 5: cooked[5]})

    def test_index_out_of_range(self):
        codec = SystematicRSCodec(2, 4)
        with pytest.raises(CodecError, match="out of range"):
            codec.decode({0: b"aa", 1: b"bb", 9: b"cc"})

    def test_mismatched_sizes(self):
        codec = SystematicRSCodec(2, 4)
        with pytest.raises(CodecError, match="same length"):
            codec.decode({0: b"aa", 1: b"b"})

    def test_encode_wrong_count(self):
        codec = SystematicRSCodec(3, 5)
        with pytest.raises(CodecError, match="expected 3"):
            codec.encode([b"a", b"b"])

    def test_encode_mismatched_lengths(self):
        codec = SystematicRSCodec(2, 4)
        with pytest.raises(CodecError, match="same length"):
            codec.encode([b"aa", b"a"])


class TestCorruptionSemantics:
    def test_m_minus_one_insufficient(self):
        """Any M−1 packets must not be accepted (the threshold is exact)."""
        codec = RabinDispersal(5, 9)
        raw = random_packets(random.Random(5), 5, 16)
        cooked = codec.encode(raw)
        with pytest.raises(CodecError):
            codec.decode({i: cooked[i] for i in range(4)})

    def test_decode_cache_consistency(self):
        """Repeated decodes with the same subset reuse the cached inverse."""
        rng = random.Random(11)
        codec = SystematicRSCodec(4, 8)
        raw = random_packets(rng, 4, 8)
        cooked = codec.encode(raw)
        subset = {1: cooked[1], 4: cooked[4], 6: cooked[6], 7: cooked[7]}
        first = codec.decode(subset)
        second = codec.decode(subset)
        assert first == second == raw

    def test_decode_cache_clear(self):
        rng = random.Random(12)
        codec = SystematicRSCodec(4, 8)
        raw = random_packets(rng, 4, 8)
        cooked = codec.encode(raw)
        subset = {i: cooked[i] for i in range(4, 8)}
        _decode_rows.cache_clear()
        codec.decode(subset)
        assert _decode_rows.cache_info().currsize == 1
        _decode_rows.cache_clear()
        assert _decode_rows.cache_info().currsize == 0
        assert codec.decode(subset) == raw
        assert _decode_rows.cache_info().currsize == 1
        codec.decode(subset)
        assert _decode_rows.cache_info().hits == 1
