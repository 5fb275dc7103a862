"""Organizational units and the structural characteristic (SC) tree.

The paper models a document's structural organization "by a tree-like
indexing structure, called a structural characteristic (SC)" (§3).
Each node is an *organizational unit* at some LOD; each unit carries
its keyword occurrence counts (for information-content computation)
and its payload size in bytes (for packetization).

Paragraphs that do not belong to any subsection are grouped under a
*virtual* unit at the intermediate level, exactly as the paper does
for its Table 1 ("paragraphs not belonging to any subsection are
grouped under a virtual subsection").
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Mapping, Optional

from repro.core.compact import CompactSC
from repro.core.lod import LOD
from repro.text.vector import OccurrenceVector


class OrganizationalUnit:
    """One node of the SC tree.

    Parameters
    ----------
    lod:
        The unit's level of detail.
    label:
        Hierarchical label such as ``"3.2.1"`` (the paper's Table 1
        numbering); the root's label is the document title.
    title:
        Human-readable title, empty for paragraphs and virtual units.
    own_counts:
        Keyword occurrences of text *intrinsic* to the unit (paragraph
        body, or a section's title words).  Aggregated counts over the
        subtree are available via :meth:`counts`.
    payload:
        The unit's intrinsic content bytes (what transmission of this
        unit alone would carry).
    virtual:
        True for grouping units inserted to satisfy the LOD hierarchy.
    """

    def __init__(
        self,
        lod: LOD,
        label: str,
        title: str = "",
        own_counts: Optional[Mapping[str, int]] = None,
        payload: bytes = b"",
        virtual: bool = False,
    ) -> None:
        self.lod = lod
        self.label = label
        self.title = title
        self.own_counts: Dict[str, int] = dict(own_counts or {})
        self.payload = payload
        self.virtual = virtual
        self.children: List["OrganizationalUnit"] = []
        self.parent: Optional["OrganizationalUnit"] = None
        #: measure name -> normalized content value of the subtree.
        self.content: Dict[str, float] = {}
        #: measure name -> content of the unit's *intrinsic* text only
        #: (a section's title words; equals ``content`` for leaves).
        self.own_content: Dict[str, float] = {}
        self._aggregated: Optional[Dict[str, int]] = None

    # -- tree construction ------------------------------------------------

    def add_child(self, child: "OrganizationalUnit") -> "OrganizationalUnit":
        if child.lod <= self.lod:
            raise ValueError(
                f"child LOD {child.lod.name} must be finer than parent {self.lod.name}"
            )
        child.parent = self
        self.children.append(child)
        self._invalidate()
        return child

    def _invalidate(self) -> None:
        node: Optional[OrganizationalUnit] = self
        while node is not None:
            node._aggregated = None
            node = node.parent

    # -- aggregation --------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Keyword occurrences aggregated over the unit's subtree."""
        return dict(self._aggregate())

    def _aggregate(self) -> Dict[str, int]:
        """The subtree aggregate itself, for read-only use.

        The content measures and the recursive aggregation read it on
        every unit they annotate; :meth:`counts` hands outside callers
        a copy instead.  A leaf's aggregate is its ``own_counts``; an
        inner unit memoizes its sum until the tree below it changes.
        """
        if not self.children:
            return self.own_counts
        if self._aggregated is None:
            total = dict(self.own_counts)
            for child in self.children:
                for keyword, count in child._aggregate().items():
                    total[keyword] = total.get(keyword, 0) + count
            self._aggregated = total
        return self._aggregated

    def size_bytes(self) -> int:
        """Payload size of the subtree (intrinsic bytes plus children)."""
        return len(self.payload) + sum(child.size_bytes() for child in self.children)

    def subtree_payload(self) -> bytes:
        """Concatenated bytes of the subtree in document order."""
        parts = [self.payload]
        parts.extend(child.subtree_payload() for child in self.children)
        return b"".join(parts)

    # -- navigation -----------------------------------------------------------

    def walk(self) -> Iterator["OrganizationalUnit"]:
        """Depth-first iterator over the subtree, including this unit."""
        yield self
        for child in self.children:
            yield from child.walk()

    def leaves(self) -> Iterator["OrganizationalUnit"]:
        """The subtree's leaf units (paragraphs, in a full tree)."""
        if not self.children:
            yield self
            return
        if self.payload:
            # Intrinsic content of an inner unit (its title) behaves as
            # a zero-depth leaf for byte accounting.
            yield _IntrinsicLeafView(self)
        for child in self.children:
            yield from child.leaves()

    def units_at(self, lod: LOD) -> List["OrganizationalUnit"]:
        """The frontier of units at *lod*.

        A unit finer than or equal to *lod* is returned whole; a
        coarser unit with no children stands for itself (a section
        without subsections is its own subsection-LOD unit).
        """
        if self.lod >= lod or not self.children:
            return [self]
        result: List[OrganizationalUnit] = []
        if self.payload:
            result.append(_IntrinsicLeafView(self))
        for child in self.children:
            result.extend(child.units_at(lod))
        return result

    def __repr__(self) -> str:
        kind = "virtual " if self.virtual else ""
        return f"OrganizationalUnit({kind}{self.lod.name} {self.label!r})"


class _IntrinsicLeafView(OrganizationalUnit):
    """A view exposing an inner unit's intrinsic text as a leaf.

    Section titles carry real bytes and keyword counts; when the
    transmission schedule enumerates frontier units below a section,
    the title must still be accounted for.  The view shares the
    original unit's payload and own counts but has no children.
    """

    def __init__(self, original: OrganizationalUnit) -> None:
        super().__init__(
            lod=original.lod,
            label=f"{original.label}(title)",
            title=original.title,
            own_counts=original.own_counts,
            payload=original.payload,
            virtual=True,
        )
        self.parent = original.parent
        # The view exposes only the intrinsic text (the title), so its
        # content is the unit's *own* share, not the subtree's.
        self.content = dict(original.own_content)
        self.own_content = dict(original.own_content)
        self.original = original


class StructuralCharacteristic:
    """The SC of a document: a unit tree plus its keyword statistics.

    Instances are produced by :class:`repro.core.pipeline.SCPipeline`.
    The document-level occurrence vector and keyword weights live here,
    and content measures annotate each unit's ``content`` mapping.
    :meth:`compact` freezes the tree into a :class:`CompactSC` and
    :meth:`from_compact` rebuilds a fresh tree from one.
    """

    def __init__(self, root: OrganizationalUnit, vector: OccurrenceVector) -> None:
        if root.lod is not LOD.DOCUMENT:
            raise ValueError("SC root must be a DOCUMENT-level unit")
        self.root = root
        self.vector = vector

    # -- lookups ---------------------------------------------------------

    def unit(self, label: str) -> Optional[OrganizationalUnit]:
        """Find a unit by its hierarchical label (e.g. ``"3.2.1"``)."""
        for candidate in self.root.walk():
            if candidate.label == label:
                return candidate
        return None

    def units_at(self, lod: LOD) -> List[OrganizationalUnit]:
        """Frontier units at *lod*, in document order."""
        return self.root.units_at(lod)

    def paragraphs(self) -> List[OrganizationalUnit]:
        return [unit for unit in self.root.walk() if unit.lod is LOD.PARAGRAPH]

    def size_bytes(self) -> int:
        return self.root.size_bytes()

    # -- content annotation --------------------------------------------------

    def annotate(
        self,
        name: str,
        measure: Callable[[OrganizationalUnit], float],
        own_measure: Optional[Callable[[OrganizationalUnit], float]] = None,
    ) -> None:
        """Store ``measure(unit)`` as ``unit.content[name]`` for every unit.

        *own_measure*, when given, computes the value of the unit's
        intrinsic text only (stored in ``unit.own_content[name]``);
        omitted, leaves copy their subtree value and inner units get 0.
        """
        for unit in self.root.walk():
            unit.content[name] = measure(unit)
            if own_measure is not None:
                unit.own_content[name] = own_measure(unit)
            elif not unit.children:
                unit.own_content[name] = unit.content[name]
            else:
                unit.own_content[name] = 0.0

    # -- the compact form ----------------------------------------------------

    def compact(self) -> CompactSC:
        """The tree as a frozen :class:`CompactSC`; the tree is only read."""
        return CompactSC.from_tree(self.root, self.vector)

    @classmethod
    def from_compact(cls, compact: CompactSC) -> "StructuralCharacteristic":
        """A fresh, unannotated tree equal to the one *compact* was made from."""
        keywords = compact.table.keywords
        units: List[OrganizationalUnit] = []
        for position, label in enumerate(compact.labels):
            unit = OrganizationalUnit(
                lod=LOD(compact.lods[position]),
                label=label,
                title=compact.titles[position],
                own_counts={keywords[key]: count for key, count in compact.own_pairs(position)},
                payload=compact.own_payload(position),
                virtual=bool(compact.virtual[position]),
            )
            units.append(unit)
        for position, unit in enumerate(units):
            for child in compact.children(position):
                unit.children.append(units[child])
                units[child].parent = unit
        return cls(units[0], compact.table.vector())

    def content_table(self, name: str = "ic") -> List[tuple]:
        """(label, value) rows in document order — the paper's Table 1 shape."""
        return [
            (unit.label, unit.content.get(name, 0.0))
            for unit in self.root.walk()
            if name in unit.content
        ]

    def __repr__(self) -> str:
        units = sum(1 for _ in self.root.walk())
        return f"StructuralCharacteristic({units} units, {self.size_bytes()} bytes)"
