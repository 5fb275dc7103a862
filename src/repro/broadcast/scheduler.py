"""The carousel scheduler: hot documents cycling on one shared stream.

:class:`CarouselScheduler` turns a set of prepared documents into a
periodic broadcast program:

* **flat** schedule — every document's full cooked set (all N
  erasure-coded frames) airs once per cycle, in hotness order;
* **skewed** schedule — the broadcast-disk discipline: hot documents
  appear several times per cycle, with per-document repeat counts
  following the square-root rule (appearance frequency ∝ √demand,
  the classic minimizer of mean tuning latency for skewed access) and
  appearances spread evenly across the cycle.

Hotness comes from the preparation service's per-document demand
counters (:attr:`repro.prep.service.PreparationService.document_hits`)
via :meth:`CarouselScheduler.from_service`, or is passed explicitly.

Every cycle is: one :class:`~repro.broadcast.airindex.AirIndex` slot,
then the frame slots of the layout.  Frame slots are **precomputed
zero-copy envelopes**: at :meth:`build` time each document's cooked
frames (the same cached byte images behind
:meth:`~repro.prep.prepare.PreparedDocument.wire_frames`) are laid
down once into a per-document arena of tagged
``MSG_BCAST_FRAME`` envelopes, and every subsequent cycle serves
memoryview slices of that arena — no serialization on the air path.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.broadcast.airindex import (
    BCAST_FRAME_MSG_TYPE,
    ENVELOPE_OVERHEAD,
    MAX_TAG,
    AirIndex,
    CarouselEntry,
)
from repro.prep.prepare import PreparedDocument
from repro.prep.request import PrepRequest

#: Ceiling on per-document appearances per cycle under the skewed
#: schedule — keeps one runaway-hot document from starving the rest.
DEFAULT_MAX_REPEATS = 8

SCHEDULES = ("flat", "skewed")


def _build_tagged_envelopes(tag: int, frames: Sequence[bytes]) -> List[memoryview]:
    """One arena of MSG_BCAST_FRAME envelopes for a document's frames.

    The carousel counterpart of a cooked document's ``MSG_FRAME``
    arena (:class:`repro.coding.packets.CookedDocument`), with the
    one-byte document tag between the message type and the frame.
    """
    per_frame_overhead = ENVELOPE_OVERHEAD + 1
    arena = bytearray(
        sum(len(frame) for frame in frames) + per_frame_overhead * len(frames)
    )
    views: List[memoryview] = []
    window = memoryview(arena)
    offset = 0
    for frame in frames:
        total = per_frame_overhead + len(frame)
        window[offset : offset + 4] = (len(frame) + 2).to_bytes(4, "big")
        window[offset + 4] = BCAST_FRAME_MSG_TYPE
        window[offset + 5] = tag
        window[offset + 6 : offset + total] = frame
        views.append(window[offset : offset + total])
        offset += total
    return views


class _Program:
    """One scheduled document: prepared bytes, tag, hotness, repeats."""

    __slots__ = ("prepared", "hotness", "tag", "repeats", "envelopes")

    def __init__(self, prepared: PreparedDocument, hotness: int) -> None:
        self.prepared = prepared
        self.hotness = hotness
        self.tag = -1
        self.repeats = 1
        self.envelopes: List[memoryview] = []


class CarouselScheduler:
    """Compile prepared documents into a periodic broadcast cycle.

    Parameters
    ----------
    schedule:
        ``"flat"`` (every document once per cycle) or ``"skewed"``
        (broadcast-disk repeats by √hotness).
    max_repeats:
        Per-document appearance ceiling for the skewed schedule.
    """

    def __init__(
        self,
        *,
        schedule: str = "flat",
        max_repeats: int = DEFAULT_MAX_REPEATS,
    ) -> None:
        if schedule not in SCHEDULES:
            raise ValueError(
                f"unknown schedule {schedule!r}; choose from {SCHEDULES}"
            )
        if max_repeats < 1:
            raise ValueError(f"max_repeats must be >= 1, got {max_repeats}")
        self.schedule = schedule
        self.max_repeats = max_repeats
        self._programs: List[_Program] = []
        self._built = False
        #: (tag, sequence, envelope) frame slots of one cycle, in air
        #: order; populated by :meth:`build`.
        self._slots: List[Tuple[int, int, memoryview]] = []
        self._layout: List[Tuple[int, int]] = []
        #: Cycles aired so far (advanced by :meth:`air_index` callers
        #: via the *cycle* argument; kept here for stats symmetry).
        self.cycles_aired = 0
        self.frames_aired = 0
        self.bytes_aired = 0

    # -- assembly ----------------------------------------------------------

    def add_document(self, prepared: PreparedDocument, hotness: int = 0) -> None:
        """Put *prepared* on the carousel with the given demand count."""
        if self._built:
            raise RuntimeError("add_document() after build()")
        if any(
            p.prepared.document_id == prepared.document_id for p in self._programs
        ):
            raise ValueError(
                f"document {prepared.document_id!r} already on the carousel"
            )
        if len(self._programs) > MAX_TAG:
            raise ValueError(f"carousel is full ({MAX_TAG + 1} documents)")
        self._programs.append(_Program(prepared, max(0, int(hotness))))

    @classmethod
    def from_service(
        cls,
        service,
        document_ids: Optional[Sequence[str]] = None,
        *,
        request: Optional[PrepRequest] = None,
        schedule: str = "flat",
        max_repeats: int = DEFAULT_MAX_REPEATS,
        limit: int = 16,
    ) -> "CarouselScheduler":
        """Build a carousel from a preparation service's hot set.

        With no *document_ids*, the service's per-document demand
        counters pick the ``limit`` hottest registered documents (all
        of them when demand is uniform).  Each is prepared through the
        service — cache hits for anything already cooked — with
        *request* (or the service default).
        """
        ranked = service.hot_documents(limit=None)
        hits: Dict[str, int] = dict(ranked)
        if document_ids is None:
            document_ids = [doc for doc, _ in ranked[: max(1, limit)]]
        if not document_ids:
            raise ValueError("no documents to put on the carousel")
        scheduler = cls(schedule=schedule, max_repeats=max_repeats)
        for document_id in document_ids:
            prepared = service.prepare(document_id, request)
            scheduler.add_document(prepared, hits.get(document_id, 0))
        scheduler.build()
        return scheduler

    def build(self) -> None:
        """Freeze the program: assign tags, repeats, layout, envelopes."""
        if self._built:
            return
        if not self._programs:
            raise ValueError("cannot build an empty carousel")
        # Hotness order decides tags (and flat air order): hottest first,
        # ties by document id for determinism.
        self._programs.sort(
            key=lambda p: (-p.hotness, p.prepared.document_id)
        )
        for tag, program in enumerate(self._programs):
            program.tag = tag
            program.repeats = self._repeats_for(program)
            program.envelopes = _build_tagged_envelopes(
                tag, program.prepared.cooked.frames()
            )
        self._layout = self._interleave()
        by_tag = {program.tag: program for program in self._programs}
        self._slots = [
            (tag, sequence, by_tag[tag].envelopes[sequence])
            for tag, count in self._layout
            for sequence in range(count)
        ]
        self._built = True

    def _repeats_for(self, program: _Program) -> int:
        if self.schedule == "flat" or len(self._programs) == 1:
            return 1
        # Square-root rule, normalized so the coldest document airs
        # once per cycle.
        floor_hot = max(
            1, min(p.hotness for p in self._programs)
        )
        weight = math.sqrt(max(1, program.hotness) / floor_hot)
        return max(1, min(self.max_repeats, round(weight)))

    def _interleave(self) -> List[Tuple[int, int]]:
        """Spread each document's appearances evenly across the cycle.

        Appearance k of a document with r repeats sits at phase
        ``(k + 0.5) / r``; sorting all appearances by phase yields the
        broadcast-disk interleaving (ties break by tag, i.e. hotness).
        """
        appearances: List[Tuple[float, int]] = []
        for program in self._programs:
            for k in range(program.repeats):
                appearances.append(((k + 0.5) / program.repeats, program.tag))
        appearances.sort()
        by_tag = {program.tag: program for program in self._programs}
        return [
            (tag, by_tag[tag].prepared.n) for _, tag in appearances
        ]

    # -- the program --------------------------------------------------------

    @property
    def documents(self) -> List[str]:
        return [p.prepared.document_id for p in self._programs]

    @property
    def period_slots(self) -> int:
        """Slots per cycle including the air-index slot."""
        self.build()
        return 1 + len(self._slots)

    def cycle_bytes(self, cycle: int = 0) -> int:
        """Bytes on air for one full cycle (index + every frame slot)."""
        self.build()
        return len(self.air_index(cycle).encode()) + sum(
            len(envelope) for _, _, envelope in self._slots
        )

    def air_index(self, cycle: int = 0) -> AirIndex:
        """The control frame announcing cycle *cycle*."""
        self.build()
        entries = tuple(
            CarouselEntry(
                document_id=p.prepared.document_id,
                tag=p.tag,
                m=p.prepared.m,
                n=p.prepared.n,
                packet_size=p.prepared.cooked.packet_size,
                original_size=p.prepared.cooked.original_size,
                systematic=p.prepared.cooked.codec.systematic,
                repeats=p.repeats,
                profile=tuple(p.prepared.content_profile),
            )
            for p in self._programs
        )
        return AirIndex(
            cycle=cycle,
            schedule=self.schedule,
            entries=entries,
            layout=tuple(self._layout),
        )

    def frame_slots(self) -> List[Tuple[int, int, memoryview]]:
        """One cycle's frame slots ``(tag, sequence, envelope)``, in order."""
        self.build()
        return self._slots

    def air_cycle(self, cycle: int) -> Iterator[Tuple[str, object]]:
        """Air one full cycle: yields ``(kind, payload)`` slots in order.

        ``("index", AirIndex)`` first, then ``("frame", envelope)`` per
        frame slot.  Advances the on-air counters :meth:`stats` reports.
        """
        index = self.air_index(cycle)
        yield "index", index
        aired = 0
        aired_bytes = len(index.encode())
        for _, _, envelope in self._slots:
            aired += 1
            aired_bytes += len(envelope)
            yield "frame", envelope
        self.cycles_aired += 1
        self.frames_aired += aired
        self.bytes_aired += aired_bytes

    def stats(self) -> Dict[str, int]:
        """Always-on counters, in the server ``stats`` dict style."""
        return {
            "documents": len(self._programs),
            "period_slots": self.period_slots,
            "cycles_aired": self.cycles_aired,
            "frames_aired": self.frames_aired,
            "bytes_aired": self.bytes_aired,
        }
