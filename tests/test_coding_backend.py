"""Backend parity and selection for the GF(2^8) coding kernels.

Every registered backend must be byte-identical to the pure-Python
reference on the full coding surface: raw matmul and matmul_into,
cooked packets from both codecs, and any-M-of-N reconstruction across
randomized geometry.  The suite also covers backend selection (env
var, explicit name, instance pass-through) and the bounded
decode-matrix cache.
"""

import importlib.util
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.coding.backend import (
    BACKEND_ENV,
    BaselineBackend,
    CodingBackendError,
    FusedBackend,
    available_backends,
    default_backend_name,
    get_backend,
)
from repro.coding import backend as backend_module
from repro.coding.gf256 import gf_mul
from repro.coding.rs import (
    DECODE_CACHE_MAX,
    RabinDispersal,
    SystematicRSCodec,
    _decode_rows,
)

BASELINE = get_backend("baseline")
OTHERS = [name for name in available_backends() if name != "baseline"]


def _packets(rng, m, size):
    return [bytes(rng.randrange(256) for _ in range(size)) for _ in range(m)]


def _rows(rng, count, m):
    return [[rng.randrange(256) for _ in range(m)] for _ in range(count)]


# ---------------------------------------------------------------------------
# Raw kernel parity
# ---------------------------------------------------------------------------

class TestKernelParity:
    @pytest.mark.parametrize("name", OTHERS)
    @pytest.mark.parametrize(
        "rows,m,size",
        [
            (1, 1, 1),
            (2, 3, 5),
            (7, 3, 33),
            (8, 16, 256),   # below the fused nibble-path row threshold
            (24, 16, 256),  # above it
            (24, 16, 4096),
            (60, 40, 64),
        ],
    )
    def test_matmul_matches_baseline(self, name, rows, m, size):
        rng = random.Random(rows * 10007 + m * 101 + size)
        matrix = _rows(rng, rows, m)
        stack = _packets(rng, m, size)
        backend = get_backend(name)
        assert backend.matmul(matrix, stack, size) == BASELINE.matmul(
            matrix, stack, size
        )

    def test_baseline_matmul_is_the_field_inner_product(self):
        rng = random.Random(5)
        stack = _packets(rng, 3, 64)
        for row in ([0, 0, 0], [1, 0, 0], [93, 1, 255], [2, 128, 29]):
            expected = bytes(
                gf_mul(row[0], a) ^ gf_mul(row[1], b) ^ gf_mul(row[2], c)
                for a, b, c in zip(*stack)
            )
            assert BASELINE.matmul([row], stack, 64) == [expected]

    @given(
        rows=st.integers(min_value=1, max_value=12),
        m=st.integers(min_value=1, max_value=12),
        size=st.integers(min_value=1, max_value=128),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matmul_parity_randomized(self, rows, m, size, seed):
        rng = random.Random(seed)
        matrix = _rows(rng, rows, m)
        stack = _packets(rng, m, size)
        reference = BASELINE.matmul(matrix, stack, size)
        for name in OTHERS:
            assert get_backend(name).matmul(matrix, stack, size) == reference


# ---------------------------------------------------------------------------
# Block-kernel surface: memoryviews, matmul_into, native vs fallback
# ---------------------------------------------------------------------------

class TestBlockKernelSurface:
    @pytest.mark.parametrize("name", OTHERS)
    @pytest.mark.parametrize("rows,m,size", [(1, 1, 1), (5, 3, 17), (24, 16, 256)])
    def test_memoryview_packets_match_bytes(self, name, rows, m, size):
        rng = random.Random(rows * 31 + m * 7 + size)
        matrix = _rows(rng, rows, m)
        stack = _packets(rng, m, size)
        backend = get_backend(name)
        views = [memoryview(packet) for packet in stack]
        assert backend.matmul(matrix, views, size) == BASELINE.matmul(
            matrix, stack, size
        )

    @pytest.mark.parametrize("name", available_backends())
    @pytest.mark.parametrize("rows,m,size", [(1, 1, 1), (4, 3, 33), (24, 16, 4096)])
    def test_matmul_into_matches_matmul(self, name, rows, m, size):
        rng = random.Random(rows * 13 + m + size)
        matrix = _rows(rng, rows, m)
        stack = _packets(rng, m, size)
        backend = get_backend(name)
        arena = bytearray(rows * size)
        backend.matmul_into(matrix, stack, size, arena)
        assert bytes(arena) == b"".join(BASELINE.matmul(matrix, stack, size))

    @pytest.mark.parametrize("name", available_backends())
    def test_matmul_into_rejects_wrong_size_buffer(self, name):
        backend = get_backend(name)
        with pytest.raises(CodingBackendError, match="matmul_into buffer"):
            backend.matmul_into([[1, 2]], [b"ab", b"cd"], 2, bytearray(3))

    def test_native_and_fallback_engines_agree(self):
        engines = [get_backend(name) for name in ("native",) if name in OTHERS]
        if importlib.util.find_spec("numpy") is not None:
            engines.append(backend_module.NumpyBackend())
        if not engines:
            pytest.skip("neither the native kernel nor numpy is available")
        rng = random.Random(23)
        for rows, m, size in [(1, 1, 1), (3, 2, 7), (9, 5, 65), (24, 16, 1024)]:
            matrix = _rows(rng, rows, m)
            stack = _packets(rng, m, size)
            expected = BASELINE.matmul(matrix, stack, size)
            for engine in engines:
                assert engine.matmul(matrix, stack, size) == expected, engine

    def test_matmul_never_materializes_product_tensor(self):
        names = [name for name in ("native", "numpy") if name in OTHERS]
        if not names:
            pytest.skip("neither the native kernel nor numpy is available")
        import tracemalloc

        rows, m, size = 96, 24, 16384
        tensor_bytes = rows * m * size  # 37.7 MB in the old formulation
        rng = random.Random(99)
        matrix = _rows(rng, rows, m)
        stack = _packets(rng, m, size)
        for name in names:
            backend = get_backend(name)
            backend.matmul(matrix, stack, size)  # warm arenas + native load
            tracemalloc.start()
            try:
                backend.matmul(matrix, stack, size)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < tensor_bytes // 2, (name, peak)


# ---------------------------------------------------------------------------
# Codec-level parity: cooked packets and reconstructions are identical
# ---------------------------------------------------------------------------

class TestCodecParity:
    @pytest.mark.parametrize("codec_cls", [RabinDispersal, SystematicRSCodec])
    @pytest.mark.parametrize(
        "m,n,size", [(1, 1, 1), (3, 7, 33), (16, 24, 256), (40, 60, 64)]
    )
    def test_encode_identical_across_backends(self, codec_cls, m, n, size):
        raw = _packets(random.Random(m * n + size), m, size)
        cooked = {
            name: codec_cls(m, n, backend=name).encode(raw)
            for name in available_backends()
        }
        reference = cooked["baseline"]
        for name, packets in cooked.items():
            assert packets == reference, name

    @pytest.mark.parametrize("codec_cls", [RabinDispersal, SystematicRSCodec])
    def test_any_m_of_n_across_backends(self, codec_cls):
        m, n, size = 4, 7, 29
        raw = _packets(random.Random(42), m, size)
        codecs = {
            name: codec_cls(m, n, backend=name) for name in available_backends()
        }
        cooked = codecs["baseline"].encode(raw)
        for subset in itertools.combinations(range(n), m):
            received = {i: cooked[i] for i in subset}
            for name, codec in codecs.items():
                assert codec.decode(received) == raw, (name, subset)

    def test_systematic_clear_prefix_on_every_backend(self):
        raw = _packets(random.Random(5), 6, 48)
        for name in available_backends():
            codec = SystematicRSCodec(6, 10, backend=name)
            cooked = codec.encode(raw)
            assert cooked[: codec.m] == raw, name

    @given(
        m=st.integers(min_value=1, max_value=10),
        extra=st.integers(min_value=0, max_value=8),
        size=st.integers(min_value=1, max_value=96),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        systematic=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_randomized_roundtrip_parity(self, m, extra, size, seed, systematic):
        n = m + extra
        codec_cls = SystematicRSCodec if systematic else RabinDispersal
        rng = random.Random(seed)
        raw = _packets(rng, m, size)
        losses = rng.sample(range(n), extra)
        received_indices = [i for i in range(n) if i not in losses]
        reference = None
        for name in available_backends():
            codec = codec_cls(m, n, backend=name)
            cooked = codec.encode(raw)
            if reference is None:
                reference = cooked
            else:
                assert cooked == reference, name
            assert codec.decode({i: cooked[i] for i in received_indices}) == raw


# ---------------------------------------------------------------------------
# Golden-fixture geometries stay byte-identical under the default backend
# ---------------------------------------------------------------------------

class TestGoldenGeometryParity:
    def test_default_backend_cooks_golden_geometries_identically(self):
        """Cook every (m, n, packet_size) geometry the protocol goldens
        exercise and require byte parity with the baseline kernel.

        The full golden replay in
        test_integration_transport_vs_runner.py runs under the default
        backend automatically; this pins the coding layer itself to the
        same geometries so a kernel regression is caught here first,
        with a pointed failure.
        """
        import json
        import pathlib

        goldens = json.loads(
            (pathlib.Path(__file__).parent / "data" / "protocol_goldens.json")
            .read_text()
        )
        geometries = sorted(
            {
                (entry["m"], entry["n"], entry["doc_size"])
                for entry in goldens["transport"]
            }
        )
        assert geometries, "golden fixture file lost its transport entries"
        packet_size = goldens["packet_size"]
        default = get_backend()
        for m, n, doc_size in geometries:
            rng = random.Random(doc_size * 31 + m)
            document = bytes(rng.randrange(256) for _ in range(doc_size))
            for codec_cls in (SystematicRSCodec, RabinDispersal):
                reference = codec_cls(m, n, backend="baseline")
                candidate = codec_cls(m, n, backend=default)
                padded = document + bytes(m * packet_size - doc_size)
                chunks = [
                    padded[i * packet_size : (i + 1) * packet_size]
                    for i in range(m)
                ]
                cooked_ref = reference.encode(chunks)
                cooked_new = candidate.encode(chunks)
                assert cooked_new == cooked_ref, (codec_cls.__name__, m, n)
                received = {i: cooked_ref[i] for i in range(n - m, n)}
                assert candidate.decode(received) == reference.decode(received)


# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------

class TestSelection:
    def test_known_names_registered(self):
        names = available_backends()
        assert "baseline" in names
        assert "fused" in names

    def test_unknown_name_raises(self):
        with pytest.raises(CodingBackendError, match="unknown coding backend"):
            get_backend("simd9000")

    def test_instance_passes_through(self):
        backend = FusedBackend()
        assert get_backend(backend) is backend

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "baseline")
        assert default_backend_name() == "baseline"
        assert isinstance(get_backend(), BaselineBackend)
        monkeypatch.setenv(BACKEND_ENV, "fused")
        assert isinstance(get_backend(), FusedBackend)

    def test_auto_and_unset_pick_best_available(self, monkeypatch):
        # Auto-selection prefers the native kernel when it loads, then
        # the numpy engine when numpy imports (each must pass the
        # parity self-check), else fused.
        names = available_backends()
        expected = next(
            name for name in ("native", "numpy", "fused") if name in names
        )
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert default_backend_name() == expected
        monkeypatch.setenv(BACKEND_ENV, "auto")
        assert default_backend_name() == expected

    def test_explicit_fused_still_overrides_auto(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "fused")
        assert default_backend_name() == "fused"
        assert isinstance(get_backend(), FusedBackend)

    def test_codec_accepts_name_and_instance(self):
        by_name = RabinDispersal(2, 4, backend="baseline")
        assert isinstance(by_name.backend, BaselineBackend)
        fused = FusedBackend()
        assert RabinDispersal(2, 4, backend=fused).backend is fused

    def test_default_resolution_logged_once(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        monkeypatch.setattr(backend_module, "_SELECTION_LOGGED", False)
        obs.enable()
        try:
            first = get_backend()
            get_backend()  # second resolution must not double-log
            get_backend("baseline")  # explicit names are never logged
            snapshot = obs.OBS.metrics.snapshot()
            counters = snapshot["counters"]
            key = f"coding.backend_selected{{backend={first.name}}}"
            assert counters.get(key) == 1.0
            events = [
                event
                for event in obs.OBS.trace.events
                if event.event == "coding_backend_selected"
            ]
            assert len(events) == 1
            assert events[0].fields["backend"] == first.name
        finally:
            obs.disable(reset=True)


# ---------------------------------------------------------------------------
# Bounded shared decode-row memo
# ---------------------------------------------------------------------------

class TestDecodeCache:
    def test_codec_cache_stays_bounded_under_churn(self):
        m, n = 2, 24  # C(24, 2) = 276 distinct chosen sets > cap
        codec = SystematicRSCodec(m, n, backend="fused")
        raw = _packets(random.Random(3), m, 8)
        cooked = codec.encode(raw)
        _decode_rows.cache_clear()
        distinct = 0
        for subset in itertools.combinations(range(n), m):
            distinct += 1
            assert codec.decode({i: cooked[i] for i in subset}) == raw
        assert distinct > DECODE_CACHE_MAX
        assert _decode_rows.cache_info().currsize == DECODE_CACHE_MAX

    def test_cache_size_gauge_reported(self):
        _decode_rows.cache_clear()
        obs.enable()
        try:
            codec = RabinDispersal(2, 5, backend="baseline")
            raw = _packets(random.Random(9), 2, 16)
            cooked = codec.encode(raw)
            codec.decode({0: cooked[0], 3: cooked[3]})
            codec.decode({1: cooked[1], 4: cooked[4]})
            snapshot = obs.OBS.metrics.snapshot()
            assert snapshot["gauges"]["rs.decode_cache_entries"] == 2.0
        finally:
            obs.disable(reset=True)
