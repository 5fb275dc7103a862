"""Erasure coding: Rabin dispersal and its systematic Vandermonde form.

The paper (§4.1) adopts the information-dispersal construction of
Rabin [18]: a file of M raw packets is transformed into N ≥ M *cooked*
packets such that **any** M intact cooked packets reconstruct the
original.  Two variants are provided:

``RabinDispersal``
    The original construction — the generator is a plain Vandermonde
    matrix, so no cooked packet reveals a raw packet in clear text
    (collecting M−1 cooked packets is "completely useless").

``SystematicRSCodec``
    The paper's "slight modification": elementary matrix operations
    turn the upper M×M block of the Vandermonde matrix into an
    identity, so the first M cooked packets equal the raw packets in
    clear text.  Clear-text packets are usable immediately on arrival
    (the property the multi-resolution early-termination logic and the
    Caching strategy both exploit), while the remaining N−M packets
    provide the redundancy.

    Those elementary operations compute ``G = V·V_top⁻¹``, and row *i*
    of that product is the Lagrange basis over the points 1..M
    evaluated at the point i+1.  ``_generator_matrix`` writes the same
    matrix down in that closed form, with O(N·M) field operations
    instead of an O(M³) inversion and product.

Both codecs guarantee the *any-M-of-N* reconstruction property, which
is verified by construction (every M-row submatrix of a Vandermonde
matrix with distinct nonzero evaluation points is invertible, and
right-multiplying by a fixed invertible matrix preserves that).
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache, reduce
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from repro.coding.backend import CodingBackend, get_backend
from repro.coding.gf256 import gf_div, gf_mul
from repro.coding.matrix import GFMatrix
from repro.obs.runtime import OBS
from repro.obs.timing import timed
from repro.util.validation import check_positive_int

MAX_COOKED = 255  # GF(2^8) admits at most 255 distinct nonzero points

#: Upper bound on cached decode matrices per codec.  Long sweeps with
#: churning loss patterns would otherwise grow the cache without
#: limit (each M×M inverse at M=40 is ~1600 ints).
DECODE_CACHE_MAX = 256


class CodecError(Exception):
    """Raised on invalid codec configuration or failed reconstruction."""


@lru_cache(maxsize=128)
def _generator_matrix(m: int, n: int, systematic: bool) -> GFMatrix:
    if not systematic:
        return GFMatrix.vandermonde(n, m)
    # Row i of V·V_top⁻¹ is L_j(x_i) for the Lagrange basis L_j over the
    # top block's points x_k = k+1:
    #   L_j(x_i) = Π_k (x_i ⊕ x_k) / ((x_i ⊕ x_j) · w_j),
    #   w_j = Π_{k≠j} (x_j ⊕ x_k).
    points = range(1, m + 1)
    weights = [
        reduce(gf_mul, (xj ^ xk for xk in points if xk != xj), 1) for xj in points
    ]
    rows = [[int(i == j) for j in range(m)] for i in range(m)]
    for xi in range(m + 1, n + 1):
        numerator = reduce(gf_mul, (xi ^ xk for xk in points), 1)
        rows.append(
            [gf_div(numerator, gf_mul(xi ^ xj, wj)) for xj, wj in zip(points, weights)]
        )
    return GFMatrix(rows)


@lru_cache(maxsize=128)
def _encode_rows(m: int, n: int, systematic: bool) -> Tuple[Tuple[int, ...], ...]:
    """The generator rows an encoder multiplies by, shared per shape.

    Systematic codes skip the identity prefix (those cooked packets
    are the raw packets verbatim).  Immutable, so every codec of one
    ``(m, n, systematic)`` shape can share the same rows.
    """
    generator = _generator_matrix(m, n, systematic)
    return tuple(
        tuple(generator.row(i)) for i in range(m if systematic else 0, n)
    )


class _DecodeMatrixCache:
    """LRU cache of decode-matrix inverses, keyed by chosen indices."""

    def __init__(self, capacity: int = DECODE_CACHE_MAX) -> None:
        check_positive_int(capacity, "capacity")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[int, ...], GFMatrix]" = OrderedDict()

    def get(self, key: Tuple[int, ...]) -> Optional[GFMatrix]:
        inverse = self._entries.get(key)
        if inverse is not None:
            self._entries.move_to_end(key)
        return inverse

    def put(self, key: Tuple[int, ...], inverse: GFMatrix) -> None:
        self._entries[key] = inverse
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple[int, ...]) -> bool:
        return key in self._entries


class _VandermondeCodec:
    """Shared encode/decode machinery for both variants."""

    systematic = False

    def __init__(
        self,
        m: int,
        n: int,
        backend: Optional[Union[str, CodingBackend]] = None,
    ) -> None:
        check_positive_int(m, "m")
        check_positive_int(n, "n")
        if n < m:
            raise CodecError(f"need n >= m, got n={n} < m={m}")
        if n > MAX_COOKED:
            raise CodecError(
                f"n={n} exceeds the GF(2^8) limit of {MAX_COOKED} cooked packets"
            )
        self.m = m
        self.n = n
        self.backend = get_backend(backend)
        self.generator = _generator_matrix(m, n, self.systematic)
        self._decode_cache = _DecodeMatrixCache()

    # -- encoding ----------------------------------------------------------

    def encode_rows(self) -> Tuple[Tuple[int, ...], ...]:
        """The generator rows the encoder multiplies by (shared per shape).

        All N rows for Rabin's dispersal; the N−M redundancy rows for
        the systematic code, whose first M cooked packets are the raw
        packets verbatim.  Row *k* yields cooked packet
        ``n − len(rows) + k``.
        """
        return _encode_rows(self.m, self.n, self.systematic)

    def _packet_size(self, raw_packets: Sequence[bytes]) -> int:
        """The common length of the M raw packets (validated)."""
        if len(raw_packets) != self.m:
            raise CodecError(f"expected {self.m} raw packets, got {len(raw_packets)}")
        size = len(raw_packets[0])
        if any(len(packet) != size for packet in raw_packets):
            raise CodecError("raw packets must all have the same length")
        return size

    def encode(self, raw_packets: Sequence[bytes]) -> List[bytes]:
        """Transform M raw packets into N cooked packets.

        All raw packets must have equal length (pad beforehand).
        Cooked packet *i* is the GF(2^8) inner product of generator row
        *i* with the raw packet column.
        """
        size = self._packet_size(raw_packets)
        with timed("rs.encode"):
            rows = self.encode_rows()
            if self.systematic:
                # Clear-text fast path: the first M cooked packets are
                # the raw packets verbatim; only the redundancy rows
                # go through the kernel.
                cooked = [bytes(packet) for packet in raw_packets]
                if rows:
                    cooked.extend(self.backend.matmul(rows, raw_packets, size))
            else:
                cooked = self.backend.matmul(rows, raw_packets, size)
        if OBS.enabled:
            OBS.metrics.counter("rs.encodes").labels(backend=self.backend.name).inc()
        return cooked

    def encode_into(
        self, raw_packets: Sequence[bytes], out: Union[bytearray, memoryview]
    ) -> None:
        """Write the :meth:`encode_rows` packets back to back into *out*.

        The buffer-reuse form of :meth:`encode` for a caller that lays
        the clear packets down itself: *out* must hold
        ``len(encode_rows()) · size`` bytes, and receives exactly the
        last cooked packets :meth:`encode` would return.
        """
        size = self._packet_size(raw_packets)
        with timed("rs.encode"):
            self.backend.matmul_into(self.encode_rows(), raw_packets, size, out)
        if OBS.enabled:
            OBS.metrics.counter("rs.encodes").labels(backend=self.backend.name).inc()

    # -- decoding ------------------------------------------------------------

    def _decode_plan(self, cooked: Mapping[int, bytes]) -> Tuple[List[int], int]:
        """Validate *cooked* and pick the M indices the decode will use."""
        if len(cooked) < self.m:
            raise CodecError(
                f"need at least {self.m} cooked packets to decode, got {len(cooked)}"
            )
        for index in cooked:
            if not 0 <= index < self.n:
                raise CodecError(f"cooked packet index {index} out of range 0..{self.n - 1}")

        indices = sorted(cooked)
        if self.systematic:
            clear = [i for i in indices if i < self.m]
            redundant = [i for i in indices if i >= self.m]
            chosen = (clear + redundant)[: self.m]
        else:
            chosen = indices[: self.m]
        chosen.sort()

        sizes = {len(cooked[i]) for i in chosen}
        if len(sizes) != 1:
            raise CodecError("cooked packets must all have the same length")
        return chosen, sizes.pop()

    def _decode_rows(self, chosen: List[int]) -> Tuple[List[List[int]], bool]:
        """The inverse-matrix rows for *chosen*, through the LRU cache."""
        key = tuple(chosen)
        inverse = self._decode_cache.get(key)
        cached = inverse is not None
        if inverse is None:
            inverse = self.generator.submatrix(chosen).inverse()
            self._decode_cache.put(key, inverse)
        return [inverse.row(i) for i in range(self.m)], cached

    def _count_decode(self, cached: bool) -> None:
        OBS.metrics.counter("rs.decodes").labels(
            path="matrix", backend=self.backend.name
        ).inc()
        OBS.metrics.counter("rs.decode_matrix_cache").labels(
            result="hit" if cached else "miss"
        ).inc()
        OBS.metrics.gauge(
            "rs.decode_cache_entries", "cached decode-matrix inverses"
        ).set(len(self._decode_cache))

    def decode(self, cooked: Mapping[int, bytes]) -> List[bytes]:
        """Reconstruct the M raw packets from any M intact cooked packets.

        *cooked* maps cooked-packet index → payload.  Extra packets
        beyond M are ignored (preferring clear-text rows when the code
        is systematic, which avoids any matrix work for a loss-free
        prefix).
        """
        chosen, size = self._decode_plan(cooked)

        if self.systematic and chosen == list(range(self.m)):
            if OBS.enabled:
                OBS.metrics.counter("rs.decodes").labels(path="clear").inc()
            return [bytes(cooked[i]) for i in chosen]

        with timed("rs.decode"):
            rows, cached = self._decode_rows(chosen)
            stack = [cooked[index] for index in chosen]
            raw = self.backend.matmul(rows, stack, size)
        if OBS.enabled:
            self._count_decode(cached)
        return raw

    def decode_into(
        self, cooked: Mapping[int, bytes], out: Union[bytearray, memoryview]
    ) -> int:
        """Decode straight into a contiguous caller buffer.

        Writes the M raw packets back-to-back into *out* (which must
        hold at least M·size bytes) and returns the number of bytes
        written.  This is the buffer-reuse path: a vectorized backend
        lands its product in *out* directly, so reconstructing a
        document costs one pass instead of per-packet ``bytes``
        objects plus a ``b"".join`` re-copy.
        """
        chosen, size = self._decode_plan(cooked)
        total = self.m * size
        view = memoryview(out)[:total]

        if self.systematic and chosen == list(range(self.m)):
            for slot, index in enumerate(chosen):
                view[slot * size : (slot + 1) * size] = cooked[index]
            if OBS.enabled:
                OBS.metrics.counter("rs.decodes").labels(path="clear").inc()
            return total

        with timed("rs.decode"):
            rows, cached = self._decode_rows(chosen)
            stack = [cooked[index] for index in chosen]
            self.backend.matmul_into(rows, stack, size, view)
        if OBS.enabled:
            self._count_decode(cached)
        return total

    def __repr__(self) -> str:
        kind = "systematic" if self.systematic else "non-systematic"
        return f"{type(self).__name__}(m={self.m}, n={self.n}, {kind})"


class RabinDispersal(_VandermondeCodec):
    """Rabin's original (non-systematic) information dispersal."""

    systematic = False


class SystematicRSCodec(_VandermondeCodec):
    """The paper's clear-text-prefix variant (identity upper block)."""

    systematic = True

    def clear_text_indices(self) -> range:
        """Indices of the cooked packets that are raw packets verbatim."""
        return range(self.m)

    def redundancy_indices(self) -> range:
        """Indices of the redundancy-bearing cooked packets."""
        return range(self.m, self.n)
