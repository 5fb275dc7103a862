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
termination decision.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.coding.packets import ArenaSlices, CookedDocument, Packetizer, WireFrames

# The MSG_FRAME envelope constants live next to the cook that writes
# envelopes; tests/test_net_wire.py pins them here against repro.net.wire.
from repro.coding.packets import _ENVELOPE_OVERHEAD, _FRAME_MSG_TYPE  # noqa: F401
from repro.obs.runtime import OBS
from repro.obs.timing import timed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core → prep)
    from repro.core.multires import ScheduledSegment, TransmissionSchedule


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
        content_profile: List[float],
        *,
        measure: str = "",
        segments: Optional[Sequence["ScheduledSegment"]] = None,
    ) -> None:
        self.document_id = document_id
        self.cooked = cooked
        #: content carried by clear-text packet i (length M, sums to
        #: the document's total content, 1.0 for a complete measure).
        self.content_profile = content_profile
        #: content measure that ranked the schedule ("" when unscheduled).
        self.measure = measure
        #: scheduled segments in transmission order (None when cooked
        #: from raw bytes without a schedule).
        self.segments: Optional[List["ScheduledSegment"]] = (
            list(segments) if segments is not None else None
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

    def _content_profile(
        self, segments: Sequence["ScheduledSegment"], m: int
    ) -> List[float]:
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
        profile: List[float] = []
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
