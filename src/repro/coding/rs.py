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
    instead of an O(M³) inversion and product.  Decoding runs the same
    interpolation the other way: a lost clear packet is the Lagrange
    basis over the M received points evaluated at its own point, so
    only the lost packets cost any field work (``_decode_rows``).

Both codecs guarantee the *any-M-of-N* reconstruction property, which
is verified by construction (every M-row submatrix of a Vandermonde
matrix with distinct nonzero evaluation points is invertible, and
right-multiplying by a fixed invertible matrix preserves that).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from repro.coding.backend import CodingBackend, get_backend
from repro.coding.gf256 import ORDER, _EXP, _LOG
from repro.coding.matrix import GFMatrix
from repro.obs.runtime import OBS
from repro.obs.timing import timed
from repro.util.validation import check_positive_int

MAX_COOKED = 255  # GF(2^8) admits at most 255 distinct nonzero points

#: Upper bound on the shared decode-row memo (:func:`_decode_rows`).
#: Long sweeps with churning loss patterns would otherwise grow it
#: without limit (a full M×M inverse at M=40 is ~1600 ints).
DECODE_CACHE_MAX = 256


class CodecError(Exception):
    """Raised on invalid codec configuration or failed reconstruction."""


@lru_cache(maxsize=128)
def _generator_matrix(m: int, n: int, systematic: bool) -> GFMatrix:
    if not systematic:
        return GFMatrix.vandermonde(n, m)
    # V·V_top⁻¹: the identity over the top block, then the encoder's
    # closed-form redundancy rows.
    identity = [[int(i == j) for j in range(m)] for i in range(m)]
    return GFMatrix(identity + list(map(list, _encode_rows(m, n, True))))


def _lagrange_rows(
    chosen: Sequence[int], targets: Sequence[int]
) -> Tuple[Tuple[int, ...], ...]:
    """Row *k* is the Lagrange basis over the points of *chosen*,
    evaluated at the point of ``targets[k]`` (packet *i* is the point
    i+1), with the products summed as logarithms."""
    # For points x_j and a target x_t:
    #   L_j(x_t) = Π_k (x_t ⊕ x_k) / ((x_t ⊕ x_j) · w_j),
    #   w_j = Π_{k≠j} (x_j ⊕ x_k).
    points = [index + 1 for index in chosen]
    log_weights = [sum(_LOG[xc ^ xk] for xk in points if xk != xc) for xc in points]
    rows = []
    for target in targets:
        logs = [_LOG[(target + 1) ^ xk] for xk in points]
        numerator = sum(logs)
        rows.append(
            tuple(_EXP[(numerator - a - b) % ORDER] for a, b in zip(logs, log_weights))
        )
    return tuple(rows)


@lru_cache(maxsize=128)
def _encode_rows(m: int, n: int, systematic: bool) -> Tuple[Tuple[int, ...], ...]:
    """The generator rows an encoder multiplies by, shared per shape.

    Systematic codes skip the identity prefix (those cooked packets
    are the raw packets verbatim); their redundancy rows are the
    generator's closed form over the clear points, so no
    :class:`GFMatrix` is built.  Immutable, so every codec of one
    ``(m, n, systematic)`` shape can share the same rows.
    """
    if systematic:
        return _lagrange_rows(range(m), range(m, n))
    generator = _generator_matrix(m, n, False)
    return tuple(tuple(generator.row(i)) for i in range(n))


@lru_cache(maxsize=DECODE_CACHE_MAX)
def _decode_rows(
    m: int, n: int, systematic: bool, chosen: Tuple[int, ...]
) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]:
    """``(targets, rows)``: raw packet ``targets[k]`` is row *k* · *chosen*.

    Shared by every codec of one shape, like :func:`_encode_rows`.
    Rabin's dispersal inverts the chosen generator rows for all M raw
    packets.  The systematic code needs rows only for the clear packets
    missing from *chosen*: missing packet *t* is the Lagrange basis
    over the chosen points evaluated at ``x_t`` (the generator's closed
    form, read the other way), with the products summed as logarithms.
    """
    if not systematic:
        inverse = _generator_matrix(m, n, False).submatrix(chosen).inverse()
        return tuple(range(m)), tuple(tuple(inverse.row(i)) for i in range(m))
    targets = tuple(sorted(set(range(m)).difference(chosen)))
    return targets, _lagrange_rows(chosen, targets)


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

    @property
    def generator(self) -> GFMatrix:
        """The full N×M generator matrix, built on first read per shape.

        Encoding and decoding use :func:`_encode_rows` and
        :func:`_decode_rows`; the systematic serve path never builds it.
        """
        return _generator_matrix(self.m, self.n, self.systematic)

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
        *i* with the raw packet column; for the systematic code the
        first M are the raw packets verbatim, and :meth:`encode_into`
        computes the rest.
        """
        size = self._packet_size(raw_packets)
        clear = self.m if self.systematic else 0
        out = memoryview(bytearray(self.n * size))
        for index in range(clear):
            out[index * size : (index + 1) * size] = raw_packets[index]
        self.encode_into(raw_packets, out[clear * size :])
        return [out[i * size : (i + 1) * size].tobytes() for i in range(self.n)]

    def encode_into(
        self, raw_packets: Sequence[bytes], out: Union[bytearray, memoryview]
    ) -> None:
        """Write the :meth:`encode_rows` packets back to back into *out*.

        The kernel call behind :meth:`encode`, for a caller that lays
        the clear packets down itself: *out* must hold
        ``len(encode_rows()) · size`` bytes, and receives exactly the
        last cooked packets :meth:`encode` returns.
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

        # The lowest indices: for the systematic code, every intact
        # clear packet comes before any redundancy packet.
        chosen = sorted(cooked)[: self.m]
        sizes = {len(cooked[i]) for i in chosen}
        if len(sizes) != 1:
            raise CodecError("cooked packets must all have the same length")
        return chosen, sizes.pop()

    def _decode(
        self, cooked: Mapping[int, bytes], out: Optional[Union[bytearray, memoryview]]
    ) -> Tuple[memoryview, int]:
        """Write the M raw packets into *out* (a fresh buffer when None).

        The one decode body: intact clear packets of the systematic
        code are copied verbatim, and only the :func:`_decode_rows`
        targets go through the backend.  Returns the written view and
        the packet size.
        """
        chosen, size = self._decode_plan(cooked)
        total = self.m * size
        view = memoryview(bytearray(total) if out is None else out)[:total]
        targets, rows = _decode_rows(self.m, self.n, self.systematic, tuple(chosen))
        if self.systematic:
            for index in chosen[: self.m - len(targets)]:
                view[index * size : (index + 1) * size] = cooked[index]
        if rows:
            with timed("rs.decode"):
                stack = [cooked[index] for index in chosen]
                first, last = targets[0], targets[-1]
                if last - first + 1 == len(targets):  # one run: land in place
                    slab = view[first * size : (last + 1) * size]
                    self.backend.matmul_into(rows, stack, size, slab)
                else:
                    products = self.backend.matmul(rows, stack, size)
                    for target, product in zip(targets, products):
                        view[target * size : (target + 1) * size] = product
        if OBS.enabled:
            OBS.metrics.counter("rs.decodes").labels(
                path="matrix" if rows else "clear", backend=self.backend.name
            ).inc()
            OBS.metrics.gauge(
                "rs.decode_cache_entries", "cached decode-row sets (shared memo)"
            ).set(_decode_rows.cache_info().currsize)
        return view, size

    def decode(self, cooked: Mapping[int, bytes]) -> List[bytes]:
        """Reconstruct the M raw packets from any M intact cooked packets.

        *cooked* maps cooked-packet index → payload.  Extra packets
        beyond M are ignored (preferring clear-text rows when the code
        is systematic, which avoids any matrix work for a loss-free
        prefix).
        """
        view, size = self._decode(cooked, None)
        return [view[i * size : (i + 1) * size].tobytes() for i in range(self.m)]

    def decode_into(
        self, cooked: Mapping[int, bytes], out: Union[bytearray, memoryview]
    ) -> int:
        """Decode into *out* (at least M·size bytes); returns bytes written."""
        return len(self._decode(cooked, out)[0])

    def reconstruct(self, intact: Mapping[int, bytes], original_size: int) -> bytes:
        """The original document bytes from ≥ M intact cooked payloads.

        Every receiver ends here, so all of them are byte-identical.
        """
        view, _size = self._decode(intact, None)
        return view[:original_size].tobytes()

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


def codec_for(m: int, n: int, systematic: bool = True, backend=None) -> _VandermondeCodec:
    """The codec of one geometry: systematic RS or Rabin's dispersal."""
    codec_cls = SystematicRSCodec if systematic else RabinDispersal
    return codec_cls(m, n, backend=backend)
