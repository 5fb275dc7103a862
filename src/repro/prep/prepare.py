"""Document preparation: schedule → cooked packets + content profile.

Home of :class:`PreparedDocument` and :class:`DocumentSender`, so
that every layer that cooks content — the simulated byte driver, the
socket server, the prototype broker — depends on :mod:`repro.prep`
rather than on the transport internals.  The
:class:`~repro.prep.service.PreparationService` builds on this module
to make preparation lazy, shared, and metered.

The sender combines the multi-resolution schedule (§3/§4.2) with the
packetizer (§4.1): the scheduled byte stream is split into M raw
packets, cooked into N ≥ M packets, and framed for the wire.  It also
derives the *content profile* — how much information content each
clear-text packet carries — which drives the client's early
termination decision — and its one wire form, :func:`encode_profile`
and :func:`decode_profile`, shared by the MANIFEST and the air index.

A prepared document stays in the cooked tier for as long as it is hot,
so it keeps its metadata packed: the profile is one ``array('d')`` and
the segments are :class:`SegmentColumns`, three packed columns that
rebuild each :class:`~repro.core.compact.ScheduledSegment` on access.
"""

from __future__ import annotations

import binascii
import math
import struct
from array import array
from collections.abc import Sequence as SequenceABC
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Tuple

from repro.coding.packets import ArenaSlices, CookedDocument, Packetizer, WireFrames

# The MSG_FRAME envelope constants live next to the cook that writes
# envelopes; tests/test_net_wire.py pins them here against repro.net.wire.
from repro.coding.packets import _ENVELOPE_OVERHEAD, _FRAME_MSG_TYPE  # noqa: F401
from repro.core.compact import ScheduledSegment
from repro.obs.runtime import OBS
from repro.obs.timing import timed

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.multires import TransmissionSchedule


def encode_profile(profile: Sequence[float]) -> str:
    """The wire form of a content profile: base64 of packed binary64.

    Each share is one little-endian IEEE-754 double, so the receiver
    gets back the very same floats, bit for bit, in about 10.7 ASCII
    characters per share where JSON's decimal floats take about 20.
    """
    packed = struct.pack(f"<{len(profile)}d", *profile)
    return binascii.b2a_base64(packed, newline=False).decode("ascii")


def decode_profile(text: object, m: int) -> Tuple[float, ...]:
    """The *m* shares of a profile's wire form; strict.

    Raises ``ValueError`` unless *text* is a string spelling exactly
    what :func:`encode_profile` writes for ``8·m`` bytes of finite
    doubles: no characters outside the base64 alphabet, no stray
    padding bits, no NaN and no infinity.
    """
    if not isinstance(text, str):
        raise ValueError(f"profile must be a base64 string, got {type(text).__name__}")
    try:
        packed = binascii.a2b_base64(text)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ValueError(f"profile is not base64: {exc}") from None
    # a2b_base64 skips characters outside the alphabet and ignores
    # padding bits; only the one canonical spelling is accepted.
    if binascii.b2a_base64(packed, newline=False).decode("ascii") != text:
        raise ValueError("profile is not canonical base64")
    if len(packed) != 8 * m:
        raise ValueError(f"profile carries {len(packed)} bytes, expected 8·m = {8 * m}")
    shares = struct.unpack(f"<{m}d", packed)
    if not all(map(math.isfinite, shares)):
        raise ValueError("profile carries a non-finite share")
    return shares


class SegmentColumns(SequenceABC):
    """Scheduled segments as packed columns; item *i* is rebuilt on access.

    The labels share one string, cut at the running ``ends``; sizes are
    an ``array('I')`` and contents an ``array('d')``.  Each item is a
    :class:`~repro.core.compact.ScheduledSegment` equal, field for
    field and bit for bit, to the one that went in, at 16 bytes plus
    its label's characters instead of a tuple, a string, an int and a
    float.  Two column sets compare equal when their items do, and one
    compares equal to any sequence of equal segments.
    """

    __slots__ = ("_labels", "_ends", "_sizes", "_contents")

    def __init__(self, segments: Iterable[ScheduledSegment]) -> None:
        rows = list(segments)
        labels = [label for label, _size, _content in rows]
        # Built from lists, each array is allocated at its exact size.
        self._labels = "".join(labels)
        self._ends = array("I", list(accumulate(map(len, labels))))
        self._sizes = array("I", [size for _label, size, _content in rows])
        self._contents = array("d", [content for _label, _size, content in rows])

    def __len__(self) -> int:
        return len(self._sizes)

    def __getitem__(self, index: int) -> ScheduledSegment:
        if index < 0:
            index += len(self._sizes)
        if not 0 <= index < len(self._sizes):
            raise IndexError(f"segment index {index} out of range")
        start = self._ends[index - 1] if index else 0
        return ScheduledSegment(
            self._labels[start : self._ends[index]], self._sizes[index], self._contents[index]
        )

    def __iter__(self) -> Iterator[ScheduledSegment]:
        labels, start = self._labels, 0
        for end, size, content in zip(self._ends, self._sizes, self._contents):
            yield ScheduledSegment(labels[start:end], size, content)
            start = end

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequenceABC) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {len(self)} segments>"


class PreparedDocument:
    """A document ready for fault-tolerant multi-resolution transfer.

    Besides the cooked packets and content profile, a prepared
    document may carry scheduling metadata — the ranking ``measure``
    and the ordered ``segments`` — so manifest builders (the prototype
    transmitter, the net server) need not re-derive the schedule.
    """

    def __init__(
        self,
        document_id: str,
        cooked: CookedDocument,
        content_profile: Sequence[float],
        *,
        measure: str = "",
        segments: Optional[Iterable[ScheduledSegment]] = None,
    ) -> None:
        self.document_id = document_id
        self.cooked = cooked
        #: content carried by clear-text packet i (length M, sums to
        #: the document's total content, 1.0 for a complete measure),
        #: packed as binary64.
        self.content_profile = array("d", content_profile)
        #: the profile's wire form (:func:`encode_profile`), encoded
        #: once here so no fetch or air index formats it again.
        self.profile_wire = encode_profile(self.content_profile)
        #: content measure that ranked the schedule ("" when unscheduled).
        self.measure = measure
        #: scheduled segments in transmission order (None when cooked
        #: from raw bytes without a schedule).
        self.segments: Optional[SegmentColumns] = (
            SegmentColumns(segments) if segments is not None else None
        )

    @property
    def m(self) -> int:
        return self.cooked.m

    @property
    def n(self) -> int:
        return self.cooked.n

    @property
    def cooked_bytes(self) -> int:
        """Total cooked payload bytes, ``n · packet_size``."""
        return self.cooked.n * self.cooked.packet_size

    @property
    def wire_bytes(self) -> int:
        """Bytes held by the envelope arena, ``n · stride``."""
        return self.cooked.n * self.cooked.stride

    def frames(self) -> ArenaSlices:
        return self.cooked.frames()

    def wire_frames(self) -> WireFrames:
        """Ready-to-send MSG_FRAME envelopes, one per cooked packet.

        Cached **on the CookedDocument** (not on this wrapper): the
        preparation service aliases one cooked set under many
        request-scoped PreparedDocument identities, and all of them
        serve the same read-only arena.
        """
        return self.cooked.wire_frames()


class DocumentSender:
    """Prepares documents for transmission over the wireless channel.

    Parameters
    ----------
    packetizer:
        Controls packet size, redundancy ratio γ, and codec choice.
    """

    def __init__(self, packetizer: Optional[Packetizer] = None) -> None:
        self.packetizer = packetizer if packetizer is not None else Packetizer()

    def prepare(
        self, document_id: str, schedule: "TransmissionSchedule"
    ) -> PreparedDocument:
        """Cook a scheduled document and compute its content profile."""
        payload = schedule.payload()
        if not payload:
            raise ValueError(f"document {document_id!r} has an empty payload")
        segments = schedule.segments()
        with timed("sender.prepare"):
            cooked = self.packetizer.cook(payload)
            profile = self._content_profile(segments, cooked.m)
        if OBS.enabled:
            self._record_prepared(cooked)
        return PreparedDocument(
            document_id,
            cooked,
            profile,
            measure=getattr(schedule, "measure", ""),
            segments=segments,
        )

    def prepare_raw(self, document_id: str, payload: bytes) -> PreparedDocument:
        """Cook an unscheduled byte blob (conventional transmission).

        The content profile is uniform: every clear packet carries an
        equal share, which is the information-free assumption for a
        document without an SC.
        """
        if not payload:
            raise ValueError(f"document {document_id!r} has an empty payload")
        with timed("sender.prepare"):
            cooked = self.packetizer.cook(payload)
        profile = [1.0 / cooked.m] * cooked.m
        if OBS.enabled:
            self._record_prepared(cooked)
        return PreparedDocument(document_id, cooked, profile)

    @staticmethod
    def _record_prepared(cooked: CookedDocument) -> None:
        OBS.metrics.counter("sender.documents_prepared").inc()
        OBS.metrics.counter("sender.cooked_packets").inc(cooked.n)
        OBS.metrics.counter("sender.raw_packets").inc(cooked.m)

    def _content_profile(self, segments: Sequence[ScheduledSegment], m: int) -> array:
        """Content carried by each of the *m* clear-text packets.

        Packet i's share is ``content_prefix((i+1)·size) −
        content_prefix(i·size)``.  One merge pass over *segments*
        yields every prefix: ``full`` sums the segments wholly inside
        the prefix, left to right, and the straddling segment adds its
        linear share — the same float operations in the same order as
        :meth:`TransmissionSchedule.content_prefix`, so the profile is
        bit-identical to calling it once per packet.
        """
        size = self.packetizer.packet_size
        profile = array("d")
        previous = 0.0
        full = 0.0
        consumed = 0
        position = 0
        for index in range(m):
            limit = (index + 1) * size
            while (
                position < len(segments)
                and limit - consumed >= segments[position].size
            ):
                full += segments[position].content
                consumed += segments[position].size
                position += 1
            cumulative = full
            if position < len(segments):
                straddling = segments[position]
                cumulative = full + straddling.content * (
                    (limit - consumed) / straddling.size
                )
            profile.append(cumulative - previous)
            previous = cumulative
        return profile
