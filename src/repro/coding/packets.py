"""Packet framing: sequence numbers + CRC over a fixed-size payload.

The paper's transmission unit is a *data packet* of ``s_p`` payload
bytes plus ``O`` = 4 bytes of overhead — a sequence number and a CRC
(§4.1, Table 2).  "Data packets are received either intact (without
error) or corrupted (with detectable error)"; a missing packet is
detected from the sequence numbers since the channel is FIFO.

Frame layout (big-endian):

    +--------+-----------------+--------+
    | seq:2  | payload: s_p    | crc:2  |
    +--------+-----------------+--------+

The 2-byte CRC-16-CCITT covers the sequence number and the payload.

A cooked document is stored once, as its wire image: a read-only
**envelope arena** holding every frame inside its ``MSG_FRAME``
envelope (4-byte length prefix + 1-byte message type, the layout of
:mod:`repro.net.wire`), back to back.  Every cooked packet is
``packet_size`` bytes after padding, so every envelope is exactly
``packet_size + ENVELOPE_STRIDE_OVERHEAD`` bytes and envelope *i*
starts at ``i · stride``::

    +--------+--------+--------+-----------------+--------+
    | len:4  | type:1 | seq:2  | payload: s_p    | crc:2  |
    +--------+--------+--------+-----------------+--------+
    |<-------------------- stride = s_p + 9 -------------->|

The payloads (``CookedDocument.cooked``), the frames (``frames()``)
and the envelopes (``wire_frames()``) are read-only slices of that
one buffer, cut on access.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Dict, Iterator, List, NamedTuple, Union

from repro.coding.crc import crc16
from repro.coding.rs import codec_for
from repro.obs.runtime import OBS
from repro.obs.timing import timed
from repro.util.bitops import chunk_bytes, pad_to_multiple
from repro.util.validation import check_positive_int

#: Frame overhead in bytes: 2 (sequence number) + 2 (CRC-16).
FRAME_OVERHEAD = 4

MAX_SEQUENCE = 0xFFFF

#: Wire-envelope constants for MSG_FRAME messages, duplicated from
#: :mod:`repro.net.wire` because the layering DAG forbids coding → net.
#: tests/test_net_wire.py asserts byte parity between the two, so a
#: drift in either is caught immediately.
_FRAME_MSG_TYPE = 0x03
_ENVELOPE_OVERHEAD = 5  # 4-byte length prefix + 1-byte message type

#: Bytes an envelope adds to its payload: envelope header + seq + CRC.
ENVELOPE_STRIDE_OVERHEAD = _ENVELOPE_OVERHEAD + FRAME_OVERHEAD

#: Offset of the frame (seq) and of the payload inside one envelope.
_FRAME_START = _ENVELOPE_OVERHEAD
_PAYLOAD_START = _ENVELOPE_OVERHEAD + 2

BufferLike = Union[bytes, bytearray, memoryview]


#: Hard ceiling on one wire envelope's length field (type + body), the
#: bound :mod:`repro.net.wire` enforces on every message it reads or
#: writes.  It also bounds what a garbled length prefix can make a
#: peer allocate.
MAX_MESSAGE_SIZE = 1 << 20

#: Largest packet size whose frame still fits one envelope: the length
#: field covers the type byte, the carousel's one-byte document tag,
#: and the frame's seq + CRC.  A request for more would cook frames no
#: client can read.
MAX_PACKET_SIZE = MAX_MESSAGE_SIZE - (1 + 1 + FRAME_OVERHEAD)


def envelope_stride(packet_size: int) -> int:
    """Bytes per envelope in the arena of a *packet_size* document."""
    return packet_size + ENVELOPE_STRIDE_OVERHEAD


class Frame(NamedTuple):
    """A decoded frame: its sequence number, payload, and validity."""

    sequence: int
    payload: bytes
    intact: bool


def encode_frame(sequence: int, payload: bytes) -> bytes:
    """Serialize a frame to wire bytes."""
    if not 0 <= sequence <= MAX_SEQUENCE:
        raise ValueError(f"sequence {sequence} out of range 0..{MAX_SEQUENCE}")
    header = sequence.to_bytes(2, "big")
    checksum = crc16(header + payload)
    return header + payload + checksum.to_bytes(2, "big")


def decode_frame(wire: bytes) -> Frame:
    """Parse wire bytes into a :class:`Frame`, flagging CRC failures.

    Frames shorter than the overhead are reported as corrupted with
    sequence −1 (the receiver cannot even trust the header).
    """
    if len(wire) < FRAME_OVERHEAD:
        if OBS.enabled:
            OBS.metrics.counter("frames.decoded").labels(intact="false").inc()
        return Frame(sequence=-1, payload=b"", intact=False)
    sequence = int.from_bytes(wire[:2], "big")
    # A copy even when *wire* is a view into a cooked arena: the
    # receiver owns what it keeps.
    payload = bytes(wire[2:-2])
    expected = int.from_bytes(wire[-2:], "big")
    intact = crc16(wire[:-2]) == expected
    if OBS.enabled:
        OBS.metrics.counter("frames.decoded", "frames parsed off the wire").labels(
            intact="true" if intact else "false"
        ).inc()
    return Frame(sequence=sequence, payload=payload, intact=intact)


class Packetizer:
    """Splits a document into raw packets and cooks them for transmission.

    Parameters
    ----------
    packet_size:
        Raw payload bytes per packet (``s_p``, 256 by default).
    redundancy_ratio:
        γ = N/M; the number of cooked packets is ``ceil(γ·M)`` clamped
        to the GF(2^8) limit.
    systematic:
        True (default) for the paper's clear-text-prefix code; False
        for Rabin's original dispersal.
    """

    def __init__(
        self,
        packet_size: int = 256,
        redundancy_ratio: float = 1.5,
        systematic: bool = True,
    ) -> None:
        check_positive_int(packet_size, "packet_size")
        if redundancy_ratio < 1.0:
            raise ValueError(f"redundancy_ratio must be >= 1, got {redundancy_ratio}")
        self.packet_size = packet_size
        self.redundancy_ratio = redundancy_ratio
        self.systematic = systematic

    def raw_packet_count(self, document_size: int) -> int:
        """M = ceil(s_D / s_p).

        Raises ``ValueError`` when M exceeds 255: GF(2^8) has no code
        with more packets, so the packet size is too small for the
        document.
        """
        if document_size <= 0:
            raise ValueError("document_size must be positive")
        m = -(-document_size // self.packet_size)
        if m > 255:
            raise ValueError(
                f"a {document_size}-byte document needs M={m} packets of "
                f"{self.packet_size} bytes; GF(2^8) codes allow at most 255"
            )
        return m

    def cooked_packet_count(self, m: int) -> int:
        """N = ceil(γ·M), clamped to 255."""
        n = math.ceil(self.redundancy_ratio * m - 1e-9)
        return min(max(n, m), 255)

    def split(self, document: bytes) -> List[bytes]:
        """Split and pad *document* into M equal raw packets."""
        padded = pad_to_multiple(document, self.packet_size)
        return chunk_bytes(padded, self.packet_size)

    def cook(self, document: bytes) -> "CookedDocument":
        """Produce the full cooked-packet set for *document*.

        Everything lands in one envelope arena: the clear payloads are
        copied in from *document* (zero padding comes free with the
        zeroed buffer), the coded rows are computed into a scratch
        buffer and copied into their slots, and each slot then gets its
        envelope header, sequence number and CRC in place.
        """
        with timed("packetizer.cook"):
            size = self.packet_size
            m = self.raw_packet_count(len(document))
            n = self.cooked_packet_count(m)
            codec = codec_for(m, n, self.systematic)
            stride = envelope_stride(size)
            arena = bytearray(n * stride)
            window = memoryview(arena)
            slots = [
                window[start : start + size]
                for start in range(_PAYLOAD_START, n * stride, stride)
            ]
            if codec.systematic:
                source = memoryview(document)
                for index in range(m):
                    chunk = source[index * size : (index + 1) * size]
                    slots[index][: len(chunk)] = chunk
                raw = slots[:m]
            else:
                padded = memoryview(pad_to_multiple(document, size))
                raw = [padded[start : start + size] for start in range(0, m * size, size)]
            coded = codec.encode_rows()
            if coded:
                parity = memoryview(bytearray(len(coded) * size))
                codec.encode_into(raw, parity)
                for row, slot in enumerate(slots[n - len(coded) :]):
                    slot[:] = parity[row * size : (row + 1) * size]
            prefix = (size + FRAME_OVERHEAD + 1).to_bytes(4, "big")
            prefix += bytes([_FRAME_MSG_TYPE])
            for sequence, start in enumerate(range(0, n * stride, stride)):
                end = start + stride
                window[start : start + _FRAME_START] = prefix
                window[start + _FRAME_START : start + _PAYLOAD_START] = sequence.to_bytes(2, "big")
                checksum = crc16(window[start + _FRAME_START : end - 2])
                window[end - 2 : end] = checksum.to_bytes(2, "big")
        if OBS.enabled:
            OBS.metrics.counter("packetizer.documents_cooked").inc()
            OBS.metrics.counter("packetizer.bytes_cooked").inc(len(document))
        return CookedDocument(
            original_size=len(document),
            packet_size=size,
            codec=codec,
            arena=arena,
        )


class ArenaSlices(Sequence):
    """One field of every envelope in an arena, sliced on access.

    Item *i* is ``arena[i·stride + head : (i+1)·stride − tail]`` as a
    read-only memoryview; nothing is stored per item, so the sequence
    costs the same few dozen bytes whatever the packet count.  Two
    sequences compare equal when their items do, and one compares
    equal to any sequence of equal bytes-like items.
    """

    __slots__ = ("_arena", "_count", "_stride", "_head", "_tail")

    def __init__(
        self, arena: memoryview, count: int, stride: int, head: int = 0, tail: int = 0
    ) -> None:
        self._arena = arena
        self._count = count
        self._stride = stride
        self._head = head
        self._tail = tail

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> memoryview:
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(f"index {index} out of range 0..{self._count - 1}")
        start = index * self._stride
        return self._arena[start + self._head : start + self._stride - self._tail]

    def __iter__(self) -> Iterator[memoryview]:
        arena, stride, head, tail = self._arena, self._stride, self._head, self._tail
        for start in range(0, self._count * stride, stride):
            yield arena[start + head : start + stride - tail]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(
            other, (str, bytes, bytearray, memoryview)
        ):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {self._count} x {self._stride} B>"


class WireFrames(ArenaSlices):
    """The ready-to-send ``MSG_FRAME`` envelopes of one cooked document.

    Adds :meth:`span`: envelopes are laid back to back, so a run of
    consecutive sequences is a single contiguous slice the server can
    queue for the socket without joining anything.
    """

    __slots__ = ()

    def span(self, start: int, stop: int) -> memoryview:
        """The envelopes of sequences ``start..stop-1`` as one slice."""
        if not 0 <= start <= stop <= self._count:
            raise IndexError(f"span {start}..{stop} out of range 0..{self._count}")
        return self._arena[start * self._stride : stop * self._stride]

    @property
    def stride(self) -> int:
        """Bytes per envelope (every envelope has the same length)."""
        return self._stride


class CookedDocument:
    """The cooked packets of one document plus reassembly support.

    The only stored form of the packets is *arena*: ``n`` envelopes of
    :func:`envelope_stride` bytes each (see the module docstring).
    ``cooked``, :meth:`frames` and :meth:`wire_frames` are cached
    read-only views of it, so a freshly cooked document and one mapped
    back from a disk bundle are built by this one constructor and
    behave identically.  Raises ``ValueError`` when the arena length is
    not ``n · stride``.
    """

    def __init__(
        self,
        original_size: int,
        packet_size: int,
        codec,
        arena: BufferLike,
    ) -> None:
        stride = envelope_stride(packet_size)
        view = memoryview(arena).toreadonly()
        if view.nbytes != codec.n * stride:
            raise ValueError(
                f"arena is {view.nbytes} bytes, need {codec.n} x {stride}"
            )
        self.original_size = original_size
        self.packet_size = packet_size
        self.codec = codec
        self.stride = stride
        #: The read-only envelope arena, the document's one byte store.
        self.arena = view
        #: Cooked payloads, one read-only view per sequence number.
        self.cooked = ArenaSlices(view, codec.n, stride, _PAYLOAD_START, 2)
        self._frames = ArenaSlices(view, codec.n, stride, _FRAME_START)
        self._envelopes = WireFrames(view, codec.n, stride)

    @property
    def m(self) -> int:
        return self.codec.m

    @property
    def n(self) -> int:
        return self.codec.n

    def frames(self) -> ArenaSlices:
        """All cooked packets framed for the wire, in sequence order.

        The same cached sequence on every call: item *i* is the frame
        (seq + payload + CRC) of sequence *i*, a read-only view of the
        arena, so a served document re-frames nothing on any round or
        any connection.
        """
        return self._frames

    def wire_frames(self) -> WireFrames:
        """Complete ``MSG_FRAME`` envelopes, one per cooked packet.

        The same cached sequence on every call; :meth:`WireFrames.span`
        yields a run of consecutive envelopes as one slice.
        """
        return self._envelopes

    def reassemble(self, received: Dict[int, bytes]) -> bytes:
        """Reconstruct the document from ≥ M intact cooked payloads."""
        return self.codec.reconstruct(received, self.original_size)

    def clear_prefix(self, received: Dict[int, bytes]) -> bytes:
        """Usable clear-text prefix before full reconstruction.

        With the systematic code, cooked packet *i* < M is raw packet
        *i*; the longest run of consecutively received clear packets
        starting at 0 is immediately renderable (§4.1: "it allows a
        portion of the original information to be used once they are
        available").
        """
        if not self.codec.systematic:
            return b""
        parts: List[bytes] = []
        for index in range(self.m):
            payload = received.get(index)
            if payload is None:
                break
            parts.append(payload)
        prefix = b"".join(parts)
        return prefix[: self.original_size]
