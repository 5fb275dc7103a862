"""Coding-kernel throughput: encode/decode MB/s per GF(2^8) backend.

Measures every registered backend on the erasure-coding hot path and
records the results to ``BENCH_coding.json`` at the repository root,
seeding the performance trajectory:

* **dense** shape — Rabin dispersal at (m=16, n=24, 4 KiB packets),
  where every output byte crosses the GF(2^8) kernel; this is the
  shape the ≥5× fused-vs-baseline acceptance bar is measured on;
* **systematic** shape — the paper's clear-text-prefix codec at the
  same geometry (encode work is the N−M redundancy rows, decode
  recovers 8 erased clear packets);
* **table2** shape — the simulation default (m=40, γ=1.5, 256-byte
  packets);
* **cold** decode — the bundled paper's systematic (m=33, n=50,
  256-byte) geometry with 14 of its 33 clear packets lost, decoded
  through the codec's ``reconstruct`` with a new erasure pattern on
  every call, the way the network client decodes.

It also times a small Experiment #1 sweep serially and with two
workers, recording wall-clock for the parallel-sweep trajectory (no
speedup assertion: CI runners may be single-core).

Quick mode (default) uses short measurement budgets; ``REPRO_FULL=1``
raises the repetition counts for stabler numbers.
"""

import json
import os
import pathlib
import platform
import random
import time

from conftest import emit

from repro.coding.backend import available_backends, get_backend
from repro.coding.gf256 import FIELD_SIZE, _mul_table
from repro.coding.rs import (
    DECODE_CACHE_MAX,
    RabinDispersal,
    SystematicRSCodec,
    _decode_rows,
    codec_for,
)
from repro.figures import format_table
from repro.simulation.experiments import experiment1
from repro.simulation.parameters import Parameters

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_coding.json"

#: The acceptance bar: fused must beat baseline by this factor on the
#: dense encode+decode shape.
FUSED_SPEEDUP_FLOOR = 5.0

#: The block-kernel bars: the pure-numpy engine must beat the legacy
#: products-tensor numpy kernel by 10x on the dense matmuls, and —
#: when the C microkernel compiled — the native backend must beat
#: fused by 3x on the dense encode+decode path.
NUMPY_SPEEDUP_FLOOR = 10.0
NATIVE_SPEEDUP_FLOOR = 3.0

_FULL = os.environ.get("REPRO_FULL") == "1"

SHAPES = (
    # (key, codec class, m, n, packet bytes, decode indices)
    ("dense_m16_n24_4k", RabinDispersal, 16, 24, 4096, tuple(range(8, 24))),
    ("systematic_m16_n24_4k", SystematicRSCodec, 16, 24, 4096, tuple(range(8, 24))),
    ("table2_m40_n60_256", SystematicRSCodec, 40, 60, 256, tuple(range(20, 60))),
)


def _random_packets(m, size, seed=20260806):
    rng = random.Random(seed)
    return [bytes(rng.randrange(256) for _ in range(size)) for _ in range(m)]


def _measure(fn, min_seconds, min_reps):
    """Repeat *fn* until both budget floors are met; return best s/call.

    Best-of-reps, not mean-of-reps: the kernels are deterministic, so
    the minimum is the noise-resistant estimator — a mean folds CI
    scheduler preemptions into the number, which made ratio floors
    flaky on shared single-core runners.
    """
    fn()  # warm caches (generator matrices, translate tables)
    best = float("inf")
    reps = 0
    elapsed = 0.0
    while reps < min_reps or elapsed < min_seconds:
        start = time.perf_counter()
        fn()
        delta = time.perf_counter() - start
        elapsed += delta
        reps += 1
        if delta < best:
            best = delta
    return best


def _legacy_numpy_matmul(np, mul, rows, packets, size):
    """The pre-block-kernel numpy matmul, preserved as a reference.

    This is the products-tensor formulation the block kernel replaced
    (broadcast gather from the full 256x256 product table *mul* into a
    rows x m x size uint8 tensor, then an XOR reduce).  Timing it here,
    on the same host as the new kernel, makes the NUMPY_SPEEDUP_FLOOR
    ratio machine-independent.
    """
    stack = np.frombuffer(b"".join(packets), dtype=np.uint8).reshape(
        len(packets), size
    )
    matrix = np.asarray(rows, dtype=np.uint8)
    chunk = max(1, (1 << 24) // max(1, stack.size))
    outputs = []
    for start in range(0, matrix.shape[0], chunk):
        block = matrix[start : start + chunk]
        products = mul[block[:, :, None], stack[None, :, :]]
        reduced = np.bitwise_xor.reduce(products, axis=1)
        outputs.extend(reduced[i].tobytes() for i in range(reduced.shape[0]))
    return outputs


def _bench_numpy_vs_legacy(min_seconds, min_reps):
    """Dense-shape matmul seconds: block kernel vs legacy tensor kernel.

    Times the encode-like (n x m generator) and decode-like (m x m
    inverse) matmuls at the dense geometry for both formulations and
    returns (legacy_seconds, block_seconds) summed over the pair.
    """
    import numpy as np

    backend = get_backend("numpy")
    m, n, size = 16, 24, 4096
    rng = random.Random(20260807)
    encode_rows = [[rng.randrange(256) for _ in range(m)] for _ in range(n)]
    decode_rows = [[rng.randrange(256) for _ in range(m)] for _ in range(m)]
    packets = _random_packets(m, size)

    mul = np.frombuffer(
        b"".join([bytes(FIELD_SIZE)] + [_mul_table(c) for c in range(1, FIELD_SIZE)]),
        dtype=np.uint8,
    ).reshape(FIELD_SIZE, FIELD_SIZE)
    legacy = lambda rows: _legacy_numpy_matmul(np, mul, rows, packets, size)
    block = lambda rows: backend.matmul(rows, packets, size)
    for rows in (encode_rows, decode_rows):  # parity before timing
        assert legacy(rows) == block(rows)

    legacy_s = sum(
        _measure(lambda r=rows: legacy(r), min_seconds, min_reps)
        for rows in (encode_rows, decode_rows)
    )
    block_s = sum(
        _measure(lambda r=rows: block(r), min_seconds, min_reps)
        for rows in (encode_rows, decode_rows)
    )
    return legacy_s, block_s


def _bench_backend(backend_name, min_seconds, min_reps):
    """Per-shape encode/decode seconds and MB/s for one backend."""
    shapes = {}
    for key, codec_cls, m, n, size, decode_indices in SHAPES:
        codec = codec_cls(m, n, backend=backend_name)
        raw = _random_packets(m, size)
        cooked = codec.encode(raw)
        received = {i: cooked[i] for i in decode_indices}
        assert codec.decode(received) == raw  # sanity before timing

        encode_s = _measure(lambda: codec.encode(raw), min_seconds, min_reps)

        def decode_warm():
            # The same pattern every call: after the first, the rows
            # come from the shared decode memo, so this times the
            # matmul (the per-packet hot loop).  _bench_cold_decode
            # times the network client's new-pattern-per-fetch case.
            codec.decode(received)

        decode_s = _measure(decode_warm, min_seconds, min_reps)
        payload_mb = m * size / 1e6
        shapes[key] = {
            "m": m,
            "n": n,
            "packet_bytes": size,
            "systematic": codec.systematic,
            "encode_seconds": encode_s,
            "decode_seconds": decode_s,
            "encode_mb_per_s": payload_mb / encode_s,
            "decode_mb_per_s": payload_mb / decode_s,
        }
    return shapes


#: The cold-decode geometry: (m, n, packet bytes, lost clear packets).
COLD_SHAPE = (33, 50, 256, 14)


def _bench_cold_decode(backend_name, min_seconds, min_reps):
    """Seconds per decode when every call brings a new erasure pattern.

    Cycles through more distinct patterns than the shared decode memo
    holds, so every call misses it (asserted) and pays the row
    construction as well as the matmul.
    """
    m, n, size, losses = COLD_SHAPE
    raw = _random_packets(m, size)
    cooked = SystematicRSCodec(m, n, backend=backend_name).encode(raw)
    rng = random.Random(20260808)
    patterns = set()
    while len(patterns) <= DECODE_CACHE_MAX:
        lost = set(rng.sample(range(m), losses))
        patterns.add(tuple(i for i in range(n) if i not in lost))
    intact_sets = [{i: cooked[i] for i in pattern} for pattern in sorted(patterns)]
    document = b"".join(raw)
    position = 0

    def decode_cold():
        nonlocal position
        intact = intact_sets[position % len(intact_sets)]
        position += 1
        # A codec per call, as reconstruct_payload builds one per decode.
        codec = codec_for(m, n, True, backend_name)
        assert codec.reconstruct(intact, len(document)) == document

    _decode_rows.cache_clear()
    decode_s = _measure(decode_cold, min_seconds, max(min_reps, len(intact_sets)))
    assert _decode_rows.cache_info().hits == 0
    return {
        "m": m,
        "n": n,
        "packet_bytes": size,
        "lost_clear_packets": losses,
        "decode_seconds": decode_s,
        "decode_mb_per_s": m * size / 1e6 / decode_s,
    }


def _sweep_walltime():
    """Wall-clock of a small Experiment #1 sweep, serial and 2-way."""
    params = Parameters(
        documents_per_session=20,
        repetitions=6 if not _FULL else 20,
        max_rounds=10,
    )
    kwargs = dict(
        gammas=(1.2, 1.5, 2.0),
        alphas=(0.1, 0.3),
        irrelevant_fractions=(0.0,),
        seed=41,
    )
    timings = {}
    reference = None
    for jobs in (1, 2):
        start = time.perf_counter()
        result = experiment1(params, jobs=jobs, **kwargs)
        timings[f"jobs{jobs}_seconds"] = time.perf_counter() - start
        flat = [
            (key, alpha, point.x, tuple(point.samples))
            for key, curves in sorted(result.items())
            for alpha, points in sorted(curves.items())
            for point in points
        ]
        if reference is None:
            reference = flat
        else:
            assert flat == reference, "parallel sweep diverged from serial"
    return timings


def test_coding_throughput():
    min_seconds = 0.6 if _FULL else 0.15
    min_reps = 10 if _FULL else 3

    backends = {}
    cold = {}
    for name in available_backends():
        backends[name] = _bench_backend(name, min_seconds, min_reps)
        cold[name] = _bench_cold_decode(name, min_seconds, min_reps)

    # Headline ratio: combined dense encode+decode time, baseline/fused.
    dense_base = backends["baseline"]["dense_m16_n24_4k"]
    dense_fused = backends["fused"]["dense_m16_n24_4k"]
    fused_speedup = (
        dense_base["encode_seconds"] + dense_base["decode_seconds"]
    ) / (dense_fused["encode_seconds"] + dense_fused["decode_seconds"])

    record = {
        "benchmark": "coding_throughput",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "full_mode": _FULL,
        "timing": "best_of_reps",
        "default_backend": get_backend().name,
        "backends": backends,
        "cold_decode": cold,
        "fused_vs_baseline_dense": fused_speedup,
        "fused_speedup_floor": FUSED_SPEEDUP_FLOOR,
        "sweep": _sweep_walltime(),
    }

    def dense_vs_fused(name):
        dense = backends[name]["dense_m16_n24_4k"]
        return (
            dense_fused["encode_seconds"] + dense_fused["decode_seconds"]
        ) / (dense["encode_seconds"] + dense["decode_seconds"])

    native_available = "native" in backends
    native_vs_fused = 0.0
    if native_available:
        native_vs_fused = dense_vs_fused("native")
        record.update(
            {
                "native_simd": bool(get_backend("native").native_simd),
                "native_vs_fused_dense": native_vs_fused,
                "native_speedup_floor": NATIVE_SPEEDUP_FLOOR,
            }
        )
    numpy_available = "numpy" in backends
    numpy_vs_legacy = 0.0
    if numpy_available:
        legacy_s, block_s = _bench_numpy_vs_legacy(min_seconds, min_reps)
        numpy_vs_legacy = legacy_s / block_s
        record.update(
            {
                "numpy_vs_fused_dense": dense_vs_fused("numpy"),
                "numpy_block_vs_legacy_dense": numpy_vs_legacy,
                "numpy_speedup_floor": NUMPY_SPEEDUP_FLOOR,
            }
        )
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    rows = []
    for name, shapes in sorted(backends.items()):
        for key, stats in shapes.items():
            rows.append(
                (name, key, stats["encode_mb_per_s"], stats["decode_mb_per_s"])
            )
    for name, stats in sorted(cold.items()):
        rows.append((name, "cold_decode_m33_n50_256", "", stats["decode_mb_per_s"]))
    rows.append(("fused/baseline (dense)", f"{fused_speedup:.2f}x", "", ""))
    if native_available:
        rows.append(("native/fused (dense)", f"{native_vs_fused:.2f}x", "", ""))
    if numpy_available:
        rows.append(
            ("numpy/fused (dense)", f"{record['numpy_vs_fused_dense']:.2f}x", "", "")
        )
        rows.append(
            ("numpy block/legacy (dense)", f"{numpy_vs_legacy:.2f}x", "", "")
        )
    sweep = record["sweep"]
    rows.append(
        ("sweep jobs=1 vs jobs=2",
         f"{sweep['jobs1_seconds']:.2f}s vs {sweep['jobs2_seconds']:.2f}s", "", "")
    )
    emit(
        "coding_throughput",
        format_table(
            rows, headers=("backend", "shape", "encode MB/s", "decode MB/s")
        ),
    )

    assert fused_speedup >= FUSED_SPEEDUP_FLOOR, (
        f"fused backend only {fused_speedup:.2f}x over baseline on the dense "
        f"shape; the perf contract requires >= {FUSED_SPEEDUP_FLOOR}x"
    )
    if native_available:
        assert native_vs_fused >= NATIVE_SPEEDUP_FLOOR, (
            f"native kernel only {native_vs_fused:.2f}x over fused on the "
            f"dense shape; the perf contract requires >= {NATIVE_SPEEDUP_FLOOR}x"
        )
    if numpy_available:
        assert numpy_vs_legacy >= NUMPY_SPEEDUP_FLOOR, (
            f"numpy block kernel only {numpy_vs_legacy:.2f}x over the legacy "
            f"products-tensor kernel on the dense matmuls; the perf contract "
            f"requires >= {NUMPY_SPEEDUP_FLOOR}x"
        )
