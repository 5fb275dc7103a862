"""The air index: what the carousel is airing and when packets recur.

A broadcast carousel cycles the cooked packets of several documents on
one shared stream.  Receivers tune in mid-cycle and know nothing; the
air index — one compact control frame aired at the head of every
cycle — tells them everything they need:

* which documents are on air, each with its erasure-code geometry
  (M, N, packet size, original size, systematic flag) and the
  content profile driving early termination (in the MANIFEST's wire
  form, :func:`~repro.prep.prepare.encode_profile`);
* the **layout**: the ordered ``(tag, frames)`` segments of one cycle,
  i.e. the document → slot map, so a receiver can predict when its
  packets recur;
* the **period**: total slots per cycle (index slot included), which
  bounds worst-case tuning latency — a receiver hears an air index at
  most one period after tune-in.

Frames on the carousel are :data:`BCAST_FRAME_MSG_TYPE` envelopes that
prefix the raw cooked frame with a one-byte document *tag* (an index
into the air-index entry table).  Attribution is therefore per-frame:
a dropped or corrupted slot never desynchronizes the receiver, unlike
a pure position-counted scheme.

The wire constants are duplicated from :mod:`repro.net.wire` because
the layering DAG forbids broadcast → net; ``tests/test_net_wire.py``
pins byte parity between the two, so drift in either is caught.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.prep.prepare import decode_profile, encode_profile

#: Wire message types, duplicated from :mod:`repro.net.wire`
#: (MSG_AIR_INDEX / MSG_BCAST_FRAME); parity pinned by test_net_wire.
AIR_INDEX_MSG_TYPE = 0x09
BCAST_FRAME_MSG_TYPE = 0x0A

#: Envelope overhead: 4-byte length prefix + 1-byte message type.
ENVELOPE_OVERHEAD = 5

#: Per-frame carousel overhead beyond the raw cooked frame: the wire
#: envelope plus the one-byte document tag.
BCAST_FRAME_OVERHEAD = ENVELOPE_OVERHEAD + 1

#: Tags are one byte; 0xFF is reserved, so a carousel carries at most
#: 255 documents.
MAX_TAG = 0xFE


def _check_int(fields_in: Dict[str, Any], name: str, minimum: int = 0) -> int:
    value = fields_in.get(name)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"air index {name} must be an int >= {minimum}, got {value!r}")
    return value


@dataclass(frozen=True)
class CarouselEntry:
    """One document on the carousel: identity, geometry, skew."""

    document_id: str
    tag: int
    m: int
    n: int
    packet_size: int
    original_size: int
    systematic: bool = True
    #: Full-set appearances per cycle (> 1 on the skewed schedule).
    repeats: int = 1
    #: Content carried by clear-text packet i (length M), enabling the
    #: engine's early-termination decision; empty when unavailable.
    profile: Tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if not 0 <= self.tag <= MAX_TAG:
            raise ValueError(f"tag must be in 0..{MAX_TAG}, got {self.tag}")
        if not 1 <= self.m <= self.n:
            raise ValueError(f"bad geometry m={self.m}, n={self.n}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")

    def to_wire(self) -> Dict[str, Any]:
        wire: Dict[str, Any] = {
            "doc": self.document_id,
            "tag": self.tag,
            "m": self.m,
            "n": self.n,
            "packet_size": self.packet_size,
            "original_size": self.original_size,
            "systematic": self.systematic,
            "repeats": self.repeats,
        }
        if self.profile:
            wire["profile"] = encode_profile(self.profile)
        return wire

    @classmethod
    def from_wire(cls, fields_in: Any) -> "CarouselEntry":
        if not isinstance(fields_in, dict):
            raise ValueError("air index entry must be an object")
        doc = fields_in.get("doc")
        if not isinstance(doc, str) or not doc:
            raise ValueError(f"air index entry doc must be a string, got {doc!r}")
        m = _check_int(fields_in, "m", 1)
        profile = (
            decode_profile(fields_in["profile"], m) if "profile" in fields_in else ()
        )
        return cls(
            document_id=doc,
            tag=_check_int(fields_in, "tag"),
            m=m,
            n=_check_int(fields_in, "n", 1),
            packet_size=_check_int(fields_in, "packet_size", 1),
            original_size=_check_int(fields_in, "original_size", 1),
            systematic=bool(fields_in.get("systematic", True)),
            repeats=_check_int({"repeats": fields_in.get("repeats", 1)}, "repeats", 1),
            profile=profile,
        )


@dataclass(frozen=True)
class AirIndex:
    """The per-cycle control frame announcing the carousel contents."""

    cycle: int
    schedule: str                              # "flat" | "skewed"
    entries: Tuple[CarouselEntry, ...]
    #: Ordered (tag, frame_count) segments of one cycle's frame slots
    #: — the document → slot map, excluding the index slot itself.
    layout: Tuple[Tuple[int, int], ...]

    @property
    def period_slots(self) -> int:
        """Slots per full cycle, the index slot included.

        A receiver tuning in at the worst moment (just after an index)
        waits exactly this many slots for the next one — the tuning
        latency bound the property suite pins.
        """
        return 1 + sum(count for _, count in self.layout)

    def entry_for(self, document_id: str) -> Optional[CarouselEntry]:
        for entry in self.entries:
            if entry.document_id == document_id:
                return entry
        return None

    def entry_for_tag(self, tag: int) -> Optional[CarouselEntry]:
        for entry in self.entries:
            if entry.tag == tag:
                return entry
        return None

    # -- wire form ---------------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        return {
            "cycle": self.cycle,
            "schedule": self.schedule,
            "entries": [entry.to_wire() for entry in self.entries],
            "layout": [[tag, count] for tag, count in self.layout],
        }

    @classmethod
    def from_wire(cls, fields_in: Any) -> "AirIndex":
        """Parse and validate; raises ``ValueError`` on junk."""
        if not isinstance(fields_in, dict):
            raise ValueError("air index must be an object")
        schedule = fields_in.get("schedule")
        if schedule not in ("flat", "skewed"):
            raise ValueError(f"unknown carousel schedule {schedule!r}")
        entries_field = fields_in.get("entries")
        if not isinstance(entries_field, list) or not entries_field:
            raise ValueError("air index entries must be a non-empty list")
        entries = tuple(CarouselEntry.from_wire(e) for e in entries_field)
        tags = {entry.tag for entry in entries}
        if len(tags) != len(entries):
            raise ValueError("air index entries carry duplicate tags")
        layout_field = fields_in.get("layout")
        if not isinstance(layout_field, list) or not layout_field:
            raise ValueError("air index layout must be a non-empty list")
        layout: List[Tuple[int, int]] = []
        for item in layout_field:
            if (
                not isinstance(item, list)
                or len(item) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)
            ):
                raise ValueError(f"air index layout segment must be [tag, count], got {item!r}")
            tag, count = item
            if tag not in tags:
                raise ValueError(f"layout references unknown tag {tag}")
            if count < 1:
                raise ValueError(f"layout segment count must be >= 1, got {count}")
            layout.append((tag, count))
        return cls(
            cycle=_check_int(fields_in, "cycle"),
            schedule=schedule,
            entries=entries,
            layout=tuple(layout),
        )

    def encode(self) -> bytes:
        """The complete MSG_AIR_INDEX wire envelope for this index."""
        body = json.dumps(self.to_wire(), separators=(",", ":")).encode("utf-8")
        return (
            (len(body) + 1).to_bytes(4, "big")
            + bytes([AIR_INDEX_MSG_TYPE])
            + body
        )


def encode_broadcast_frame(tag: int, frame: bytes) -> bytes:
    """One MSG_BCAST_FRAME wire envelope: tag byte + raw cooked frame."""
    if not 0 <= tag <= MAX_TAG:
        raise ValueError(f"tag must be in 0..{MAX_TAG}, got {tag}")
    return (
        (len(frame) + 2).to_bytes(4, "big")
        + bytes([BCAST_FRAME_MSG_TYPE, tag])
        + frame
    )
