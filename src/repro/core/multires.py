"""Multi-resolution transmission scheduling (paper §3, §4.2).

Given a document's SC and a chosen LOD, the organizational units at
that level are ranked by a content measure (IC, QIC, MQIC, ...) and
transmitted in descending order, "allowing higher content-bearing
portions of a web document to be transmitted to a mobile client
earlier".  Transmitting at the *document* LOD degenerates to the
conventional sequential paradigm.

The schedule also exposes the byte stream and a per-segment content
profile — the inputs to packetization and to the simulator's early-
termination logic.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.compact import ScheduledSegment
from repro.core.lod import LOD
from repro.core.structure import OrganizationalUnit, StructuralCharacteristic


class TransmissionSchedule:
    """An ordered plan for transmitting one document.

    Parameters
    ----------
    sc:
        The annotated structural characteristic (measures must already
        be attached via :func:`repro.core.information.annotate_sc`).
    lod:
        The level of detail at which units are ranked.  ``DOCUMENT``
        reproduces conventional sequential transmission.
    measure:
        The ``unit.content`` key used for ranking (``"ic"``, ``"qic"``,
        ``"mqic"``, ...).
    """

    def __init__(
        self,
        sc: StructuralCharacteristic,
        lod: LOD = LOD.PARAGRAPH,
        measure: str = "ic",
    ) -> None:
        self.sc = sc
        self.lod = lod
        self.measure = measure
        self.units = self._rank(sc.units_at(lod))

    def _rank(self, units: Sequence[OrganizationalUnit]) -> List[OrganizationalUnit]:
        if self.lod is LOD.DOCUMENT:
            return list(units)
        missing = [u.label for u in units if self.measure not in u.content]
        if missing:
            raise ValueError(
                f"units {missing} lack measure {self.measure!r}; call annotate_sc first"
            )
        indexed = list(enumerate(units))
        # Stable ranking: descending measure, ties in document order.
        indexed.sort(key=lambda pair: (-pair[1].content[self.measure], pair[0]))
        return [unit for _index, unit in indexed]

    # -- stream assembly -----------------------------------------------------

    def segments(self) -> List[ScheduledSegment]:
        """Per-unit (label, byte size, content) in transmission order.

        Zero-byte units are skipped — they occupy no room in the
        stream.
        """
        result: List[ScheduledSegment] = []
        for unit in self.units:
            size = unit.size_bytes()
            if size == 0:
                continue
            result.append(
                ScheduledSegment(
                    label=unit.label,
                    size=size,
                    content=unit.content.get(self.measure, 0.0),
                )
            )
        return result

    def payload(self) -> bytes:
        """The document bytes in transmission order."""
        return b"".join(unit.subtree_payload() for unit in self.units)

    def total_bytes(self) -> int:
        return sum(segment.size for segment in self.segments())

    def content_prefix(self, byte_count: int) -> float:
        """Content delivered by the first *byte_count* stream bytes.

        Content accrues linearly within a unit (a half-received unit
        yields half its content) — the model the simulator uses for
        clear-text packets.

        Each call rebuilds :meth:`segments`, so it costs O(units)
        subtree walks.  :class:`~repro.prep.DocumentSender` does not
        call it per packet: it derives the whole content profile in one
        merge pass over a single ``segments()`` list, with the same
        float operations in the same order, and this method is the
        oracle its tests compare against.
        """
        if byte_count <= 0:
            return 0.0
        remaining = byte_count
        accrued = 0.0
        for segment in self.segments():
            if remaining >= segment.size:
                accrued += segment.content
                remaining -= segment.size
            else:
                accrued += segment.content * (remaining / segment.size)
                break
        return accrued

    def __repr__(self) -> str:
        return (
            f"TransmissionSchedule(lod={self.lod.name}, measure={self.measure!r}, "
            f"{len(self.units)} units, {self.total_bytes()} bytes)"
        )


def conventional_schedule(sc: StructuralCharacteristic) -> TransmissionSchedule:
    """The baseline: sequential transmission at the document LOD."""
    return TransmissionSchedule(sc, lod=LOD.DOCUMENT)


def best_first_schedule(
    sc: StructuralCharacteristic,
    measure: str = "ic",
    lod: Optional[LOD] = None,
) -> TransmissionSchedule:
    """The paper's recommended configuration: paragraph-LOD ranking."""
    return TransmissionSchedule(sc, lod=lod if lod is not None else LOD.PARAGRAPH, measure=measure)
