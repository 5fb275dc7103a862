"""Pluggable GF(2^8) coding kernels.

The erasure code's hot path is one primitive: the GF(2^8)
matrix × packet-stack product (``matmul``) that cooks raw packets
into redundancy packets and, on the receive side, multiplies the
decode rows back onto the received stack.  Everything else
in :mod:`repro.coding.rs` is bookkeeping.  This module isolates that
primitive behind a small backend interface so the kernel can be
swapped without touching codec logic:

``baseline``
    The original pure-Python reference path: one
    ``xor_bytes(acc, gf_mul_bytes(c, packet))`` per nonzero matrix
    coefficient.  Kept as the semantic reference every other backend
    must match byte-for-byte.

``fused``
    A pure-Python kernel that multiply-accumulates each generator row
    in the wide-integer domain.  Packets are lifted to Python ints
    once (``int.from_bytes``); per-packet 16-entry nibble tables
    (v·p and v·(16·p) for v in 0..15, built with a shift-and-reduce
    ladder) turn every matrix coefficient into two wide XORs, so the
    per-coefficient cost no longer crosses the bytes↔int boundary at
    all.  For short row blocks, where table construction would
    dominate, it falls back to per-coefficient 256-entry translate
    tables accumulated into the same wide-integer register.

``native``
    The block kernel: a PSHUFB-style nibble-table microkernel compiled
    from C at first use (:mod:`repro.coding._native`) and called
    through :mod:`ctypes` on stdlib buffers — the matrix as flat
    ``bytes``, the packets copied into a grow-only thread-local
    ``bytearray`` stack, the product written into a fresh
    ``bytearray`` or, for ``matmul_into``, straight into the caller's
    buffer.  Needs a C compiler, never numpy.

``numpy``
    The no-compiler block kernel: a pure numpy uint64-lane engine that
    computes the identical bytes with an accumulating XOR over
    per-column nibble gathers, in preallocated thread-local scratch
    arenas, never materializing the n·m·size product tensor.  numpy
    is imported when this backend is first used, not when this module
    is imported.

Selection is a process setting, never a request parameter:
``REPRO_CODING_BACKEND`` in the environment is an explicit override.
Unset (or ``auto``) picks the best available backend, each candidate
gated by a tiny parity self-check against ``baseline``: ``native`` when
the kernel loads, else ``numpy`` when numpy imports, else ``fused``.  A
serving process on a host with a C compiler therefore never imports
numpy.  The choice is made once per process and logged once through
:mod:`repro.obs` when telemetry is on.  All backends are
byte-identical; the parity property suite
(``tests/test_coding_backend.py``) enforces it across randomized
(m, n, packet-size) grids.  Only :func:`repro.coding.rs.codec_for`
takes an explicit kernel, for those parity suites and the throughput
benchmark.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import threading
from functools import lru_cache
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.coding.gf256 import _mul_table, gf_mul_bytes
from repro.obs.runtime import OBS
from repro.util.bitops import xor_bytes

#: Environment variable naming the process-wide default backend.
BACKEND_ENV = "REPRO_CODING_BACKEND"

#: Bytes-like inputs accepted in matmul packet stacks.
BytesLike = Union[bytes, bytearray, memoryview]


class CodingBackendError(Exception):
    """Raised for unknown or unavailable backend names."""


def _as_bytes(data: BytesLike) -> bytes:
    """Materialize a bytes-like object for APIs that need real bytes."""
    return data if isinstance(data, bytes) else bytes(data)


class CodingBackend:
    """One GF(2^8) kernel implementation.

    A backend provides the two primitives the codec uses, both over
    bytes-like packets (never mutating them):

    * ``matmul(rows, packets, size)`` — the R×K matrix × K-packet
      stack product; returns R byte strings of ``size`` bytes.
    * ``matmul_into(rows, packets, size, out)`` — the buffer-reuse
      variant: it writes the R rows contiguously into the writable
      buffer *out* (``len(out) == R·size``) so an encode or decode
      lands directly in its output arena.  The base implementation
      copies ``matmul`` results; vectorized backends override it to
      write in place.
    """

    name = "abstract"

    def matmul(
        self, rows: Sequence[Sequence[int]], packets: Sequence[BytesLike], size: int
    ) -> List[bytes]:
        raise NotImplementedError

    def matmul_into(
        self,
        rows: Sequence[Sequence[int]],
        packets: Sequence[BytesLike],
        size: int,
        out: Union[bytearray, memoryview],
    ) -> None:
        view = memoryview(out)
        if len(view) != len(rows) * size:
            raise CodingBackendError(
                f"matmul_into buffer is {len(view)} bytes, "
                f"need {len(rows) * size}"
            )
        for index, row in enumerate(self.matmul(rows, packets, size)):
            view[index * size : (index + 1) * size] = row

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def _count_matmul(backend: str, rows: int, size: int) -> None:
    metrics = OBS.metrics
    metrics.counter("coding.matmul_calls", "kernel invocations").labels(
        backend=backend
    ).inc()
    metrics.counter("coding.matmul_bytes", "output bytes produced by kernels").labels(
        backend=backend
    ).inc(rows * size)


class BaselineBackend(CodingBackend):
    """The reference kernel: per-coefficient scale-then-XOR on bytes."""

    name = "baseline"

    def matmul(
        self, rows: Sequence[Sequence[int]], packets: Sequence[BytesLike], size: int
    ) -> List[bytes]:
        packets = [_as_bytes(packet) for packet in packets]
        out: List[bytes] = []
        for row in rows:
            acc = bytes(size)
            for coefficient, packet in zip(row, packets):
                if coefficient:
                    acc = xor_bytes(acc, gf_mul_bytes(coefficient, packet))
            out.append(acc)
        if OBS.enabled:
            _count_matmul(self.name, len(out), size)
        return out


# -- fused kernel -----------------------------------------------------------

#: Below this many output rows the nibble-table construction cost
#: outweighs its 2-XOR-per-coefficient inner loop; use the translate
#: path instead (measured crossover ≈ 6 rows at 16 columns).
_NIBBLE_MIN_ROWS = 6

_MASK_CACHE: Dict[int, Tuple[int, int]] = {}


def _masks(size: int) -> Tuple[int, int]:
    masks = _MASK_CACHE.get(size)
    if masks is None:
        masks = (
            int.from_bytes(b"\x7f" * size, "little"),
            int.from_bytes(b"\x01" * size, "little"),
        )
        _MASK_CACHE[size] = masks
    return masks


def _xtime(x: int, m7f: int, m01: int) -> int:
    """Multiply every byte lane of wide integer *x* by 2 in GF(2^8).

    Per lane: shift left, then fold the dropped high bit back in as
    the reduction polynomial 0x1D.  ``hi * 0x1D`` is a plain integer
    product, which is safe because the 5-bit 0x1D patterns of adjacent
    lanes (8 bits apart) cannot overlap, so no carries occur.
    """
    return ((x & m7f) << 1) ^ (((x >> 7) & m01) * 0x1D)


def _nibble_ladder(base: int, m7f: int, m01: int) -> Tuple[int, ...]:
    """(v · base for v in 0..15) built from three doublings + XORs."""
    t2 = _xtime(base, m7f, m01)
    t4 = _xtime(t2, m7f, m01)
    t8 = _xtime(t4, m7f, m01)
    t3 = t2 ^ base
    t5 = t4 ^ base
    t6 = t4 ^ t2
    t12 = t8 ^ t4
    return (
        0, base, t2, t3, t4, t5, t6, t6 ^ base,
        t8, t8 ^ base, t8 ^ t2, t8 ^ t3, t12, t12 ^ base, t12 ^ t2, t12 ^ t3,
    )


class FusedBackend(CodingBackend):
    """Wide-integer multiply-accumulate with per-packet nibble tables."""

    name = "fused"

    def matmul(
        self, rows: Sequence[Sequence[int]], packets: Sequence[BytesLike], size: int
    ) -> List[bytes]:
        if len(rows) >= _NIBBLE_MIN_ROWS:
            out = self._matmul_nibble(rows, packets, size)
        else:
            out = self._matmul_translate(rows, packets, size)
        if OBS.enabled:
            _count_matmul(self.name, len(out), size)
        return out

    @staticmethod
    def _matmul_nibble(
        rows: Sequence[Sequence[int]], packets: Sequence[BytesLike], size: int
    ) -> List[bytes]:
        # Packet-outer: one packet's 32 tables are live at a time, so the
        # working set is O((n + 32)·size), not O(32·m·size).  Freeing
        # megabytes of tables at the heap top on every call made the
        # allocator return and re-fault them, doubling the call's cost.
        m7f, m01 = _masks(size)
        from_bytes = int.from_bytes
        accs = [0] * len(rows)
        for k, packet in enumerate(packets):
            low = _nibble_ladder(from_bytes(packet, "little"), m7f, m01)
            high = _nibble_ladder(_xtime(low[8], m7f, m01), m7f, m01)
            for r, row in enumerate(rows):
                coefficient = row[k]
                if coefficient:
                    accs[r] ^= low[coefficient & 15] ^ high[coefficient >> 4]
        return [acc.to_bytes(size, "little") for acc in accs]

    @staticmethod
    def _matmul_translate(
        rows: Sequence[Sequence[int]], packets: Sequence[BytesLike], size: int
    ) -> List[bytes]:
        from_bytes = int.from_bytes
        out: List[bytes] = []
        for row in rows:
            acc = 0
            for coefficient, packet in zip(row, packets):
                if coefficient == 0:
                    continue
                if coefficient == 1:
                    acc ^= from_bytes(packet, "little")
                else:
                    acc ^= from_bytes(
                        _as_bytes(packet).translate(_mul_table(coefficient)),
                        "little",
                    )
            out.append(acc.to_bytes(size, "little"))
        return out


# -- native kernel ------------------------------------------------------------

class NativeBackend(CodingBackend):
    """The compiled C microkernel on stdlib buffers — no numpy.

    :mod:`repro.coding._native` compiles, loads and parity-checks the
    kernel; this backend only lays its operands out.  The matrix is one
    flat ``bytes`` object, and the packet column is copied into a
    grow-only thread-local ``bytearray`` stack, so read-only packets
    (``mmap`` slices of a disk-tier bundle) work as they are.
    ``matmul`` lands the product in a fresh ``bytearray``;
    ``matmul_into`` hands the caller's writable buffer to the kernel
    directly.
    """

    name = "native"
    native = True

    def __init__(self) -> None:
        from repro.coding import _native

        kernel = _native.load()
        if kernel is None:
            raise CodingBackendError(
                "native coding backend unavailable: the GF(2^8) kernel did "
                "not build or load (no C compiler, or REPRO_CODING_NATIVE=0)"
            )
        self._kernel = kernel
        # Thread-local: backend instances are process-wide singletons
        # and the preparation service cooks from executor threads.
        self._local = threading.local()

    @property
    def native_simd(self) -> bool:
        """True when the kernel was compiled with AVX2."""
        return bool(self._kernel.simd)

    def _stack(self, packets: Sequence[BytesLike], size: int):
        """The packet column copied into this thread's contiguous stack."""
        local = self._local
        stack = getattr(local, "stack", None)
        need = len(packets) * size
        if stack is None or len(stack) < need:
            stack = local.stack = bytearray(max(need, 1))
            # The export pins the stack's size: a packet of the wrong
            # length raises BufferError instead of resizing it.
            local.pointer = (ctypes.c_char * len(stack)).from_buffer(stack)
        offset = 0
        for packet in packets:
            stack[offset : offset + size] = packet
            offset += size
        return local.pointer

    def _product(
        self,
        rows: Sequence[Sequence[int]],
        packets: Sequence[BytesLike],
        size: int,
        out,
    ) -> None:
        n, m = len(rows), len(packets)
        matrix = b"".join(map(bytes, rows))
        if len(matrix) != n * m:
            raise CodingBackendError(
                f"matrix has {len(matrix)} coefficients, need {n} x {m}"
            )
        target = (ctypes.c_char * (n * size)).from_buffer(out)
        self._kernel.matmul_into(
            target, matrix, self._stack(packets, size), n, m, size
        )

    def matmul(
        self, rows: Sequence[Sequence[int]], packets: Sequence[BytesLike], size: int
    ) -> List[bytes]:
        n = len(rows)
        if n == 0:
            return []
        out = bytearray(n * size)
        self._product(rows, packets, size, out)
        view = memoryview(out)
        result = [
            view[start : start + size].tobytes() for start in range(0, n * size, size)
        ]
        if OBS.enabled:
            _count_matmul(self.name, n, size)
        return result

    def matmul_into(
        self,
        rows: Sequence[Sequence[int]],
        packets: Sequence[BytesLike],
        size: int,
        out: Union[bytearray, memoryview],
    ) -> None:
        n = len(rows)
        view = memoryview(out)
        if view.nbytes != n * size:
            raise CodingBackendError(
                f"matmul_into buffer is {view.nbytes} bytes, need {n * size}"
            )
        if n == 0:
            return
        self._product(rows, packets, size, view)
        if OBS.enabled:
            _count_matmul(self.name, n, size)


# -- pure-numpy engine ---------------------------------------------------------


class _NumpyTables(NamedTuple):
    np: Any
    #: uint64 lane masks and the reduction constant.
    m7f: Any
    m01: Any
    m0f: Any
    x1d: Any


@lru_cache(maxsize=None)
def _numpy_tables() -> _NumpyTables:
    """numpy and the tables built from it, imported on first use."""
    import numpy as np

    return _NumpyTables(
        np,
        np.uint64(0x7F7F7F7F7F7F7F7F),
        np.uint64(0x0101010101010101),
        np.uint64(0x0F0F0F0F0F0F0F0F),
        np.uint64(0x1D),
    )


class NumpyBackend(CodingBackend):
    """Pure-numpy block kernel over scratch arenas.

    Packs packets into uint64 lanes, builds the 16-entry nibble product
    table per packet with a carry-free xtime ladder, and folds each
    matrix column into the accumulator with one gather + XOR —
    O(n·size) live memory; the n·m·size product tensor is never
    materialized.  numpy is imported at the first call, not at import.

    All operand buffers come from a thread-local grow-only arena, so
    steady-state encode/decode allocates nothing beyond the output
    ``bytes`` objects (and ``matmul_into`` skips even those).
    """

    name = "numpy"

    def __init__(self) -> None:
        self._local = threading.local()

    def _scratch(self, tag: str, count: int, dtype):
        """A reusable thread-local buffer of at least *count* elements.

        Grow-only per (tag, dtype): steady-state traffic with stable
        geometry hits the cached buffer every time.  Thread-local
        because backend instances are shared process-wide singletons
        and the preparation service cooks from executor threads.
        """
        buffers = getattr(self._local, "buffers", None)
        if buffers is None:
            buffers = self._local.buffers = {}
        key = (tag, dtype)
        buffer = buffers.get(key)
        if buffer is None or buffer.size < count:
            buffer = _numpy_tables().np.empty(max(count, 1), dtype=dtype)
            buffers[key] = buffer
        return buffer[:count]

    # -- matmul --------------------------------------------------------------

    def matmul(
        self, rows: Sequence[Sequence[int]], packets: Sequence[BytesLike], size: int
    ) -> List[bytes]:
        n = len(rows)
        if n == 0:
            return []
        out = self._matmul_block(rows, packets, size, n)
        result = [out[index].tobytes() for index in range(n)]
        if OBS.enabled:
            _count_matmul(self.name, n, size)
        return result

    def matmul_into(
        self,
        rows: Sequence[Sequence[int]],
        packets: Sequence[BytesLike],
        size: int,
        out: Union[bytearray, memoryview],
    ) -> None:
        np = _numpy_tables().np
        n = len(rows)
        view = np.frombuffer(out, dtype=np.uint8)
        if view.size != n * size:
            raise CodingBackendError(
                f"matmul_into buffer is {view.size} bytes, need {n * size}"
            )
        if n == 0:
            return
        view.reshape(n, size)[:] = self._matmul_block(rows, packets, size, n)
        if OBS.enabled:
            _count_matmul(self.name, n, size)

    def _matmul_block(
        self, rows: Sequence[Sequence[int]], packets: Sequence[BytesLike], size: int, n: int
    ):
        """The (n, size) product block, living in scratch memory.

        Callers must consume (copy out of) the result before the next
        kernel call on this thread.

        For each packet the 16 low-nibble products v·p are built with
        three xtime doublings and eleven XORs; a coefficient c then
        costs two gathers (low nibble, high nibble) folded into the
        accumulator, plus one deferred ·16 fixup for the high half.
        Peak extra memory is the (16, m, size) table + (2n, size)
        accumulator — the n·m·size broadcast tensor of the old
        gather/reduce formulation never exists.
        """
        np, m7f, m01, m0f, x1d = _numpy_tables()
        matrix = np.ascontiguousarray(np.asarray(rows, dtype=np.uint8)).reshape(n, -1)
        m = len(packets)
        padded = (size + 7) & ~7
        lanes = padded >> 3

        stack8 = self._scratch("stack", m * padded, np.uint8).reshape(m, padded)
        if padded != size:
            stack8[:, size:] = 0
        for index, packet in enumerate(packets):
            stack8[index, :size] = np.frombuffer(packet, dtype=np.uint8)
        stack64 = stack8.view(np.uint64)

        # Nibble product table: table[v, k] = v · packet_k, per byte lane.
        table = self._scratch("table", 16 * m * lanes, np.uint64).reshape(
            16, m, lanes
        )
        scratch = self._scratch("xtime", m * lanes, np.uint64).reshape(m, lanes)
        table[0] = 0
        table[1] = stack64
        for source, target in ((1, 2), (2, 4), (4, 8)):
            src = table[source]
            dst = table[target]
            np.right_shift(src, np.uint64(7), out=scratch)
            np.bitwise_and(scratch, m01, out=scratch)
            np.multiply(scratch, x1d, out=scratch)
            np.bitwise_and(src, m7f, out=dst)
            np.left_shift(dst, np.uint64(1), out=dst)
            np.bitwise_xor(dst, scratch, out=dst)
        for a, b in (
            (1, 2), (1, 4), (2, 4), (3, 4),
            (1, 8), (2, 8), (3, 8), (4, 8), (5, 8), (6, 8), (7, 8),
        ):
            np.bitwise_xor(table[a], table[b], out=table[a ^ b])

        # Accumulate: rows 0..n-1 gather by low nibble, n..2n-1 by high.
        low = matrix & 0x0F
        high = matrix >> 4
        accumulator = self._scratch("acc", 2 * n * lanes, np.uint64).reshape(
            2 * n, lanes
        )
        accumulator[:] = 0
        index = self._scratch("idx", 2 * n, np.intp)
        for k in range(m):
            index[:n] = low[:, k]
            index[n:] = high[:, k]
            np.bitwise_xor(accumulator, table[index, k], out=accumulator)

        # High-half fixup: multiply each byte lane by 16 (x^4), using
        # x^8 ≡ x^4+x^3+x^2+1 for the nibble that overflows, then fold
        # into the low half.  All shifts stay inside their byte lane.
        low_acc = accumulator[:n]
        high_acc = accumulator[n:]
        nibble = self._scratch("nib", n * lanes, np.uint64).reshape(n, lanes)
        spill = self._scratch("spill", n * lanes, np.uint64).reshape(n, lanes)
        np.right_shift(high_acc, np.uint64(4), out=nibble)
        np.bitwise_and(nibble, m0f, out=nibble)
        np.bitwise_and(high_acc, m0f, out=high_acc)
        np.left_shift(high_acc, np.uint64(4), out=high_acc)
        for shift in (4, 3, 2):
            np.left_shift(nibble, np.uint64(shift), out=spill)
            np.bitwise_xor(high_acc, spill, out=high_acc)
        np.bitwise_xor(high_acc, nibble, out=high_acc)
        np.bitwise_xor(low_acc, high_acc, out=low_acc)
        return low_acc.view(np.uint8).reshape(n, padded)[:, :size]


# -- registry ----------------------------------------------------------------

_REGISTRY: Dict[str, CodingBackend] = {}


def register_backend(backend: CodingBackend) -> CodingBackend:
    """Add *backend* to the registry (idempotent by name)."""
    _REGISTRY[backend.name] = backend
    return backend


def _lookup(name: str) -> Optional[CodingBackend]:
    """The backend registered as *name*; ``native`` registers on first request.

    Raises :class:`CodingBackendError` for ``native`` when the kernel
    is unavailable.
    """
    backend = _REGISTRY.get(name)
    if backend is None and name == NativeBackend.name:
        backend = register_backend(NativeBackend())
    return backend


def available_backends() -> List[str]:
    """Names of every usable backend, sorted (loads the native kernel)."""
    try:
        _lookup(NativeBackend.name)
    except CodingBackendError:
        pass
    return sorted(_REGISTRY)


register_backend(BaselineBackend())
register_backend(FusedBackend())
# Registered by presence only: numpy itself is imported at first use.
if importlib.util.find_spec("numpy") is not None:
    register_backend(NumpyBackend())


# -- default selection -------------------------------------------------------

_AUTO_SELECTED: Optional[str] = None
_SELECTION_LOGGED = False


def _parity_self_check(candidate: CodingBackend) -> bool:
    """One tiny deterministic parity run against the reference kernel.

    Odd size, a zero row, a zero column entry, and coefficients with
    both nibbles set — cheap (<1 ms) but enough to catch a broken
    table, a lane-math slip, or a miscompiled native kernel before it
    becomes the process default.
    """
    rows = [[0, 1, 2], [3, 0, 5], [255, 7, 129], [0, 0, 0]]
    packets = [
        bytes((k * 131 + j * 17 + 3) % 256 for j in range(17)) for k in range(3)
    ]
    reference = _REGISTRY["baseline"]
    return candidate.matmul(rows, packets, 17) == reference.matmul(rows, packets, 17)


def _auto_backend_name() -> str:
    """Best available backend, decided once per process.

    ``native`` when the kernel loads and passes the parity self-check,
    else ``numpy`` when it imports and passes, else ``fused`` — so a
    host with a C compiler never imports numpy.
    """
    global _AUTO_SELECTED
    if _AUTO_SELECTED is None:
        choice = "fused"
        for name in ("native", "numpy"):
            try:
                candidate = _lookup(name)
                if candidate is not None and _parity_self_check(candidate):
                    choice = name
                    break
            except Exception:  # any failure (no kernel, no numpy) falls through
                continue
        _AUTO_SELECTED = choice
    return _AUTO_SELECTED


def _log_selection(backend: CodingBackend) -> None:
    """Record the resolved default once per process (telemetry on only)."""
    global _SELECTION_LOGGED
    if _SELECTION_LOGGED or not OBS.enabled:
        return
    _SELECTION_LOGGED = True
    native = bool(getattr(backend, "native", False))
    OBS.trace.emit(
        "coding_backend_selected", backend=backend.name, native=native
    )
    OBS.metrics.counter(
        "coding.backend_selected", "default kernel resolutions"
    ).labels(backend=backend.name).inc()


def default_backend_name() -> str:
    """The name selected by ``REPRO_CODING_BACKEND``, or the best available.

    An explicit environment value wins unchanged.  Unset or ``auto``
    resolves to ``native``, ``numpy`` or ``fused``, the first that is
    available and passes the parity self-check.
    """
    name = os.environ.get(BACKEND_ENV, "").strip().lower()
    if name and name != "auto":
        return name
    return _auto_backend_name()


def get_backend(
    name: Optional[Union[str, CodingBackend]] = None
) -> CodingBackend:
    """Resolve *name* (or the environment default) to a backend.

    Accepts an existing backend instance, a registered name, ``None``
    or ``"auto"`` for the default; raises :class:`CodingBackendError`
    for anything else.
    """
    if isinstance(name, CodingBackend):
        return name
    defaulted = name is None or name == "" or name == "auto"
    if defaulted:
        name = default_backend_name()
    backend = _lookup(name.strip().lower())
    if backend is None:
        raise CodingBackendError(
            f"unknown coding backend {name!r}; available: {available_backends()}"
        )
    if defaulted:
        _log_selection(backend)
    return backend
