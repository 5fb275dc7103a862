"""Runtime-compiled GF(2^8) matmul microkernel (optional, stdlib-only).

The pure-Python ``fused`` kernel in :mod:`repro.coding.backend` pays
interpreter cost per coefficient.  The classic way past that ceiling —
used by ISA-L and every serious erasure-coding library — is the PSHUFB
trick: for a coefficient ``c``, two 16-entry tables (``c·v`` and
``c·(v<<4)`` for nibbles ``v``) fit in one SIMD register each, so a
32-byte shuffle multiplies 32 packet bytes by ``c`` entirely in
registers.

This module compiles that kernel **at first use** with whatever C
compiler the host has (``cc``/``gcc``/``clang``), loads it through
:mod:`ctypes`, and verifies it byte-for-byte against the pure-Python
field arithmetic before handing it out.  There is no build step, no
new dependency, and no hard requirement: any failure — no compiler,
compile error, load error, parity mismatch — makes :func:`load`
return ``None``, and the automatic kernel choice in
:mod:`repro.coding.backend` falls back to the pure-Python ``fused``
kernel.

The nibble tables themselves are generated *here, in Python*, from
:mod:`repro.coding.gf256`, so the field semantics live in exactly one
place; the C side only moves bytes.

Set ``REPRO_CODING_NATIVE=0`` to disable compilation entirely (the
automatic choice then takes the same ``fused`` fallback).
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
from typing import List, Optional

from repro.coding.gf256 import _EXP, _LOG, _mul_table
from repro.util.nossl import sha256

#: Environment gate: "0"/"false"/"no"/"off" skips the native kernel.
NATIVE_ENV = "REPRO_CODING_NATIVE"

#: Override for the shared-object cache directory.
CACHE_ENV = "REPRO_NATIVE_CACHE"

#: The microkernel.  ``gf_matmul(out, M, stack, n, m, size, lohi)``
#: computes ``out[r] = XOR_k M[r][k] · stack[k]`` over GF(2^8) with
#: the 0x11D reduction polynomial.  ``lohi`` is the (256, 32) nibble
#: product table: ``lohi[c][v] = c·v`` and ``lohi[c][16+v] = c·(v<<4)``.
#: With AVX2 the inner loop is two shuffles + three XORs per 32 bytes;
#: without it, a portable two-lookups-per-byte scalar loop.
KERNEL_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#if defined(__AVX2__)
#include <immintrin.h>
#define HAVE_SIMD 1

void gf_matmul(uint8_t* out, const uint8_t* M, const uint8_t* stack,
               long n, long m, long size, const uint8_t* lohi) {
    const __m256i maskf = _mm256_set1_epi8(0x0f);
    for (long r = 0; r < n; r++) {
        uint8_t* orow = out + r * size;
        memset(orow, 0, (size_t)size);
        for (long k = 0; k < m; k++) {
            uint8_t c = M[r * m + k];
            if (!c) continue;
            const uint8_t* t = lohi + (long)c * 32;
            const __m256i tlo = _mm256_broadcastsi128_si256(
                _mm_loadu_si128((const __m128i*)t));
            const __m256i thi = _mm256_broadcastsi128_si256(
                _mm_loadu_si128((const __m128i*)(t + 16)));
            const uint8_t* x = stack + k * size;
            long j = 0;
            for (; j + 64 <= size; j += 64) {
                __m256i v0 = _mm256_loadu_si256((const __m256i*)(x + j));
                __m256i v1 = _mm256_loadu_si256((const __m256i*)(x + j + 32));
                __m256i p0 = _mm256_xor_si256(
                    _mm256_shuffle_epi8(tlo, _mm256_and_si256(v0, maskf)),
                    _mm256_shuffle_epi8(thi, _mm256_and_si256(
                        _mm256_srli_epi16(v0, 4), maskf)));
                __m256i p1 = _mm256_xor_si256(
                    _mm256_shuffle_epi8(tlo, _mm256_and_si256(v1, maskf)),
                    _mm256_shuffle_epi8(thi, _mm256_and_si256(
                        _mm256_srli_epi16(v1, 4), maskf)));
                __m256i o0 = _mm256_loadu_si256((const __m256i*)(orow + j));
                __m256i o1 = _mm256_loadu_si256((const __m256i*)(orow + j + 32));
                _mm256_storeu_si256((__m256i*)(orow + j),
                                    _mm256_xor_si256(o0, p0));
                _mm256_storeu_si256((__m256i*)(orow + j + 32),
                                    _mm256_xor_si256(o1, p1));
            }
            for (; j < size; j++) {
                uint8_t b = x[j];
                orow[j] ^= t[b & 15] ^ t[16 + (b >> 4)];
            }
        }
    }
}

#else
#define HAVE_SIMD 0

/* Portable scalar fallback: two L1 table lookups per byte. */
void gf_matmul(uint8_t* out, const uint8_t* M, const uint8_t* stack,
               long n, long m, long size, const uint8_t* lohi) {
    for (long r = 0; r < n; r++) {
        uint8_t* orow = out + r * size;
        memset(orow, 0, (size_t)size);
        for (long k = 0; k < m; k++) {
            uint8_t c = M[r * m + k];
            if (!c) continue;
            const uint8_t* t = lohi + (long)c * 32;
            const uint8_t* x = stack + k * size;
            for (long j = 0; j < size; j++) {
                uint8_t b = x[j];
                orow[j] ^= t[b & 15] ^ t[16 + (b >> 4)];
            }
        }
    }
}

#endif

int gf_kernel_simd(void) { return HAVE_SIMD; }
"""

#: Flag sets tried in order; -march=native unlocks AVX2 where the CPU
#: has it, the bare -O3 build falls through to the scalar kernel.
_FLAG_SETS = (
    ("-O3", "-march=native"),
    ("-O3",),
)

_SENTINEL = object()
_KERNEL: object = _SENTINEL


def build_lohi() -> bytes:
    """The (256, 32) nibble product table as flat bytes.

    Row ``c`` holds ``c·v`` for ``v`` in 0..15 followed by ``c·(v<<4)``
    — both read straight out of the field's log/antilog tables so the
    semantics are the Python field's, never the C side's.  No
    per-scalar multiply table is built or kept.
    """
    nibbles = range(1, 16)
    logs = [_LOG[v] for v in nibbles] + [_LOG[v << 4] for v in nibbles]
    rows: List[bytes] = [bytes(32)]
    for c in range(1, 256):
        products = [_EXP[_LOG[c] + log] for log in logs]
        rows.append(bytes([0] + products[:15] + [0] + products[15:]))
    return b"".join(rows)


class NativeGFKernel:
    """A loaded, parity-checked kernel; call with raw buffer addresses."""

    def __init__(self, lib: ctypes.CDLL, lohi: bytes) -> None:
        self._lib = lib
        # Keep the table buffer alive for the lifetime of the kernel.
        self._lohi = ctypes.create_string_buffer(lohi, len(lohi))
        self._lohi_addr = ctypes.addressof(self._lohi)
        self.simd = bool(lib.gf_kernel_simd())

    def matmul_into(
        self,
        out_addr: int,
        matrix_addr: int,
        stack_addr: int,
        n: int,
        m: int,
        size: int,
    ) -> None:
        """out[n*size] = M[n*m] × stack[m*size]; all buffers contiguous."""
        self._lib.gf_matmul(
            out_addr, matrix_addr, stack_addr, n, m, size, self._lohi_addr
        )


def _disabled() -> bool:
    return os.environ.get(NATIVE_ENV, "").strip().lower() in {
        "0",
        "false",
        "no",
        "off",
    }


def _cache_dir() -> str:
    override = os.environ.get(CACHE_ENV, "").strip()
    if override:
        return override
    return os.path.join(tempfile.gettempdir(), "repro-gf256-native")


def _find_compiler() -> Optional[str]:
    for candidate in (os.environ.get("CC", ""), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _compile(compiler: str, directory: str, digest: str) -> Optional[str]:
    """Compile the kernel into the cache; atomic against races."""
    source_path = os.path.join(directory, f"gf256-{digest}.c")
    if not os.path.exists(source_path):
        tmp = f"{source_path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(KERNEL_SOURCE)
        os.replace(tmp, source_path)
    for tag, flags in enumerate(_FLAG_SETS):
        so_path = os.path.join(directory, f"gf256-{digest}-f{tag}.so")
        if os.path.exists(so_path):
            return so_path
        tmp = f"{so_path}.{os.getpid()}.tmp"
        result = subprocess.run(
            [compiler, *flags, "-shared", "-fPIC", "-o", tmp, source_path],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        if result.returncode == 0 and os.path.exists(tmp):
            os.replace(tmp, so_path)
            return so_path
        if os.path.exists(tmp):  # pragma: no cover - compiler half-wrote
            os.unlink(tmp)
    return None


def _self_check(kernel: NativeGFKernel) -> bool:
    """Parity against the pure-Python field on a deterministic case.

    Odd size and a coefficient sweep that covers zero, one, and
    values with both nibbles set — enough to expose a mis-built
    table, a tail-loop bug, or a miscompiled shuffle.
    """
    n, m, size = 5, 4, 35
    matrix = bytes((r * 67 + k * 29) % 256 for r in range(n) for k in range(m))
    stack = bytes((k * 131 + j * 17 + 3) % 256 for k in range(m) for j in range(size))
    expected = bytearray(n * size)
    for r in range(n):
        for k in range(m):
            c = matrix[r * m + k]
            if not c:
                continue
            table = _mul_table(c)
            row = stack[k * size : (k + 1) * size].translate(table)
            for j in range(size):
                expected[r * size + j] ^= row[j]
    out = ctypes.create_string_buffer(n * size)
    matrix_buf = ctypes.create_string_buffer(matrix, len(matrix))
    stack_buf = ctypes.create_string_buffer(stack, len(stack))
    kernel.matmul_into(
        ctypes.addressof(out),
        ctypes.addressof(matrix_buf),
        ctypes.addressof(stack_buf),
        n,
        m,
        size,
    )
    return out.raw == bytes(expected)


def _load_impl() -> Optional[NativeGFKernel]:
    compiler = _find_compiler()
    if compiler is None:
        return None
    directory = _cache_dir()
    os.makedirs(directory, exist_ok=True)
    digest = sha256(KERNEL_SOURCE.encode("utf-8")).hexdigest()[:16]
    so_path = _compile(compiler, directory, digest)
    if so_path is None:
        return None
    lib = ctypes.CDLL(so_path)
    lib.gf_matmul.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_long] * 3 + [
        ctypes.c_void_p
    ]
    lib.gf_matmul.restype = None
    lib.gf_kernel_simd.argtypes = []
    lib.gf_kernel_simd.restype = ctypes.c_int
    kernel = NativeGFKernel(lib, build_lohi())
    if not _self_check(kernel):  # pragma: no cover - miscompilation guard
        return None
    return kernel


def load() -> Optional[NativeGFKernel]:
    """The process-wide kernel, compiled on first call; None on any failure."""
    global _KERNEL
    if _KERNEL is _SENTINEL:
        if _disabled():
            _KERNEL = None
        else:
            try:
                _KERNEL = _load_impl()
            except Exception:  # pragma: no cover - defensive: never required
                _KERNEL = None
    return _KERNEL  # type: ignore[return-value]
