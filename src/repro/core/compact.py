"""The compact structural characteristic: one document's SC as flat arrays.

The paper builds a document's SC once (§3.3) and re-scores it for every
query (§3.2); XML retrieval systems likewise index structure once and
score it at query time (arXiv:1111.6349).  :class:`CompactSC` is that
index for one document, frozen after construction:

* units in preorder (document order), with their LOD and virtual flag
  as one byte each, the exclusive end of each unit's subtree in an
  ``array``, and labels and titles as tuples;
* one payload buffer with per-unit offsets: a subtree's payload is one
  contiguous slice, because preorder is document order;
* a :class:`KeywordTable` of the document's keywords in
  occurrence-vector order, with their counts and weights;
* each unit's own keyword counts and each inner unit's subtree
  aggregate as ``(keyword id, count)`` runs in ``array`` buffers.
  Aggregate runs keep the key order the tree's dict aggregation
  produces (own keywords first, then each child's in turn), so a
  measure sums its terms in exactly the tree's order.

This module also holds the one implementation of each content measure's
arithmetic (§3.1–3.2): a measure maps ``(keyword id, count)`` pairs to
a float.  The tree measures of :mod:`repro.core.information` feed it
the tree's dicts and a cook feeds it the runs; both see the same pairs
in the same order, so both give the same bits.

A cook never writes here: :meth:`CompactSC.schedule` returns a fresh
ranking, and the cached form is shared by concurrent cooks without a
lock.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import accumulate, chain
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Sequence, Tuple

from repro.text.vector import OccurrenceVector

#: Unsigned typecodes from narrowest to widest; each integer buffer
#: takes the narrowest that holds its largest value.
_TYPECODES = "BHILQ"


def _packed(values: Sequence[int]) -> array:
    """*values* in the narrowest unsigned ``array`` that holds them."""
    for code in _TYPECODES[:-1]:
        try:
            return array(code, values)
        except OverflowError:
            continue
    return array(_TYPECODES[-1], values)


Pairs = Iterable[Tuple[int, int]]


class ScheduledSegment(NamedTuple):
    """One contiguous stretch of the transmission stream.

    ``content`` is the segment's share of the document's total content
    measure; ``size`` its length in bytes.  Segments are emitted in
    transmission order.
    """

    label: str
    size: int
    content: float


class KeywordTable:
    """A document's keywords in occurrence-vector order.

    Ids ``0 .. len(counts) - 1`` are the vector's keywords with their
    counts; any keyword a unit carries that the vector lacks follows
    them, with weight 0 (the vector's convention for absent keywords).
    """

    __slots__ = ("keywords", "counts", "weights", "norm")

    def __init__(self, vector: OccurrenceVector, unit_counts: Iterable[Mapping[str, int]] = ()) -> None:
        keywords = list(vector)
        known = set(keywords)
        keywords += [
            keyword
            for keyword in dict.fromkeys(chain.from_iterable(unit_counts))
            if keyword not in known
        ]
        self.keywords: Tuple[str, ...] = tuple(keywords)
        self.counts = _packed([count for _keyword, count in vector.items()])
        weights = vector.weights()
        self.weights = array("d", [weights.get(keyword, 0.0) for keyword in keywords])
        self.norm: str = vector.norm_kind

    def index(self) -> Dict[str, int]:
        """keyword → id, for callers that hold keyword-keyed counts."""
        return {keyword: key for key, keyword in enumerate(self.keywords)}

    def vector_pairs(self) -> Pairs:
        """The occurrence vector as ``(id, count)`` pairs, in vector order."""
        return enumerate(self.counts)

    def lookup(self, values: Mapping[str, float]) -> array:
        """``values`` per keyword id, 0.0 where a keyword has none."""
        table = array("d", bytes(8 * len(self.keywords)))
        for keyword, value in values.items():
            try:
                table[self.keywords.index(keyword)] = value
            except ValueError:
                continue
        return table

    def vector(self) -> OccurrenceVector:
        """A fresh occurrence vector equal to the one compacted."""
        return OccurrenceVector(dict(zip(self.keywords, self.counts)), norm=self.norm)

    @property
    def nbytes(self) -> int:
        """Bytes held: the keyword tuple and the two arrays."""
        return sum(map(sys.getsizeof, (self.keywords, self.counts, self.weights)))


# -- measure arithmetic ----------------------------------------------------


class Measure:
    """One content measure over a keyword table.

    :meth:`value` normalizes :meth:`raw` by the measure's value over the
    whole occurrence vector, so the document scores 1 (0 when the
    document has nothing to score).
    """

    __slots__ = ("name", "denominator")

    def raw(self, pairs: Pairs) -> float:
        raise NotImplementedError

    def value(self, pairs: Pairs) -> float:
        if self.denominator == 0:
            return 0.0
        return self.raw(pairs) / self.denominator


class LinearMeasure(Measure):
    """Σ count · c[id], added up by the builtin ``sum`` in pair order.

    The static IC (c = ω_a), the modified query IC (c = ω_a + λ·ω_a^Q)
    and tf–idf (c = idf) all have this shape.
    """

    __slots__ = ("coefficients",)

    def __init__(self, name: str, coefficients: Sequence[float], table: KeywordTable) -> None:
        self.name = name
        self.coefficients = coefficients
        self.denominator = self.raw(table.vector_pairs())

    def raw(self, pairs: Pairs) -> float:
        coefficients = self.coefficients
        return sum(count * coefficients[key] for key, count in pairs)


class ProductMeasure(Measure):
    """The query IC: Σ count · ω_a · ω_a^Q over querying words only."""

    __slots__ = ("weights", "query_weights")

    def __init__(self, name: str, table: KeywordTable, query_weights: Sequence[float]) -> None:
        self.name = name
        self.weights = table.weights
        self.query_weights = query_weights
        self.denominator = self.raw(table.vector_pairs())

    def raw(self, pairs: Pairs) -> float:
        weights, query_weights = self.weights, self.query_weights
        total = 0.0
        for key, count in pairs:
            query_weight = query_weights[key]
            if query_weight == 0.0:
                continue
            total += count * weights[key] * query_weight
        return total


class OccurrenceMeasure(Measure):
    """A unit's share of the document's keyword occurrences."""

    __slots__ = ()

    def __init__(self, name: str, table: KeywordTable) -> None:
        self.name = name
        self.denominator = sum(table.counts)

    def raw(self, pairs: Pairs) -> float:
        return sum(count for _key, count in pairs)


def static_measure(table: KeywordTable) -> Measure:
    """The paper's information content p_i (§3.1)."""
    return LinearMeasure("ic", table.weights, table)


def proportional_measure(table: KeywordTable) -> Measure:
    """Every keyword occurrence weighs the same."""
    return OccurrenceMeasure("proportional", table)


def query_measure(table: KeywordTable, query_weights: Mapping[str, float]) -> Measure:
    """Query-based information content q_i^Q (§3.2, product form)."""
    return ProductMeasure("qic", table, table.lookup(query_weights))


def query_scale(table: KeywordTable, query_total: int) -> float:
    """λ = Σ|a_D| / Σ|a_Q|, which puts the two weight scales in range."""
    return sum(table.counts) / query_total if query_total else 0.0


def modified_query_measure(
    table: KeywordTable, query_weights: Mapping[str, float], query_total: int
) -> Measure:
    """Modified query IC q̃_i^Q (§3.2): weights ω_a + λ·ω_a^Q."""
    scale = query_scale(table, query_total)
    query = table.lookup(query_weights)
    coefficients = array(
        "d", [weight + scale * query[key] for key, weight in enumerate(table.weights)]
    )
    return LinearMeasure("mqic", coefficients, table)


def tfidf_measure(
    table: KeywordTable, document_frequency: Mapping[str, int], corpus_size: int
) -> Measure:
    """tf–idf against a background corpus; unseen keywords have df = 1."""
    coefficients = array(
        "d",
        [
            math.log((1 + corpus_size) / max(1, document_frequency.get(keyword, 1))) + 1.0
            for keyword in table.keywords
        ],
    )
    return LinearMeasure("tfidf", coefficients, table)


# -- the compact SC ----------------------------------------------------------


def _flatten(runs: Sequence[Mapping[int, int]]) -> Tuple[array, array]:
    """``(keyword id, count)`` runs as one interleaved buffer plus starts."""
    keys = list(chain.from_iterable(runs))
    flat = keys * 2
    flat[0::2] = keys
    flat[1::2] = list(chain.from_iterable(map(dict.values, runs)))
    starts = list(accumulate((2 * len(run) for run in runs), initial=0))
    return _packed(flat), _packed(starts)


def _pairs(runs: array, start: int, end: int) -> Iterator[Tuple[int, int]]:
    chunk = runs[start:end]
    return zip(chunk[0::2], chunk[1::2])


class CompactSC:
    """One document's SC as flat, read-only arrays (see the module doc).

    Build it with :meth:`from_tree` from an SC tree's root and vector;
    :meth:`repro.core.structure.StructuralCharacteristic.from_compact`
    turns it back into a fresh tree.
    """

    __slots__ = (
        "lods",
        "virtual",
        "ends",
        "labels",
        "titles",
        "payload",
        "offsets",
        "table",
        "own",
        "own_starts",
        "aggregate",
        "aggregate_starts",
    )

    def __init__(self, units: Sequence, table: KeywordTable, ends: Sequence[int]) -> None:
        index = table.index()
        self.table = table
        self.lods = bytes(int(unit.lod) for unit in units)
        self.virtual = bytes(1 if unit.virtual else 0 for unit in units)
        self.ends = _packed(ends)
        self.labels: Tuple[str, ...] = tuple(unit.label for unit in units)
        self.titles: Tuple[str, ...] = tuple(unit.title for unit in units)
        self.payload = b"".join(unit.payload for unit in units)
        self.offsets = _packed(list(accumulate((len(unit.payload) for unit in units), initial=0)))
        owns = [
            {index[keyword]: count for keyword, count in unit.own_counts.items()}
            for unit in units
        ]
        self.own, self.own_starts = _flatten(owns)
        # Subtree aggregates, children before parents, each built the
        # way the tree's ``_aggregate`` builds its dict: own counts
        # first, then every child's aggregate in turn.  A leaf's
        # aggregate is its own counts and is not stored twice.
        totals: List[Dict[int, int]] = list(owns)
        inner = [position for position in range(len(units)) if not self.is_leaf(position)]
        for position in reversed(inner):
            total = dict(owns[position])
            for child in self.children(position):
                for key, count in totals[child].items():
                    total[key] = total.get(key, 0) + count
            totals[position] = total
        self.aggregate, self.aggregate_starts = _flatten(
            [{} if self.is_leaf(position) else total for position, total in enumerate(totals)]
        )

    @classmethod
    def from_tree(cls, root, vector: OccurrenceVector) -> "CompactSC":
        """Compact the unit tree under *root* and its occurrence vector.

        *root* is any unit tree with ``lod``, ``label``, ``title``,
        ``own_counts``, ``payload``, ``virtual`` and ``children``.  The
        tree is only read.
        """
        units: List = []
        ends: List[int] = []

        def visit(unit) -> None:
            position = len(units)
            units.append(unit)
            ends.append(0)
            for child in unit.children:
                visit(child)
            ends[position] = len(units)

        visit(root)
        table = KeywordTable(vector, (unit.own_counts for unit in units))
        return cls(units, table, ends)

    # -- structure -------------------------------------------------------

    def is_leaf(self, position: int) -> bool:
        return self.ends[position] == position + 1

    def children(self, position: int) -> Iterator[int]:
        """Positions of *position*'s children, in document order."""
        child = position + 1
        end = self.ends[position]
        while child < end:
            yield child
            child = self.ends[child]

    def own_pairs(self, position: int) -> Iterator[Tuple[int, int]]:
        """The unit's own ``(keyword id, count)`` pairs."""
        return _pairs(self.own, self.own_starts[position], self.own_starts[position + 1])

    def subtree_pairs(self, position: int) -> Iterator[Tuple[int, int]]:
        """The subtree aggregate's pairs (a leaf's are its own)."""
        if self.is_leaf(position):
            return self.own_pairs(position)
        starts = self.aggregate_starts
        return _pairs(self.aggregate, starts[position], starts[position + 1])

    def own_payload(self, position: int) -> bytes:
        return self.payload[self.offsets[position] : self.offsets[position + 1]]

    @property
    def payload_size(self) -> int:
        return len(self.payload)

    @property
    def nbytes(self) -> int:
        """Bytes held by the arrays, the payload and the strings.

        Keyword strings are not counted: the pipeline's lemmatizer
        already holds every lemma.
        """
        buffers = (
            self.lods,
            self.virtual,
            self.ends,
            self.labels,
            self.titles,
            self.payload,
            self.offsets,
            self.own,
            self.own_starts,
            self.aggregate,
            self.aggregate_starts,
        )
        strings = {id(text): text for text in self.labels + self.titles if text}
        return (
            sum(map(sys.getsizeof, buffers))
            + sum(map(sys.getsizeof, strings.values()))
            + self.table.nbytes
        )

    # -- scheduling ------------------------------------------------------

    def frontier(self, lod: int) -> List[Tuple[int, bool]]:
        """``(position, title view)`` of the units at *lod*, in document order.

        A unit at *lod* or finer, or one without children, stands
        whole; a coarser inner unit contributes its own text (its
        title) as a leaf when it has any, and then its children.
        """
        result: List[Tuple[int, bool]] = []
        lods, ends, offsets = self.lods, self.ends, self.offsets
        position = 0
        count = len(lods)
        while position < count:
            end = ends[position]
            if lods[position] >= lod or end == position + 1:
                result.append((position, False))
                position = end
                continue
            if offsets[position + 1] > offsets[position]:
                result.append((position, True))
            position += 1
        return result

    def schedule(self, lod: int, measure: Measure) -> "CompactSchedule":
        """The frontier at *lod*, ranked by *measure*."""
        return CompactSchedule(self, lod, measure)


class CompactSchedule:
    """A ranked frontier of a :class:`CompactSC`.

    The same stream as :class:`repro.core.multires.TransmissionSchedule`
    over the same document: units ranked by descending measure, ties in
    document order, with the document LOD left unranked.  It computes
    only *measure*, into a fresh ``array('d')``.
    """

    __slots__ = ("sc", "measure", "entries", "values")

    def __init__(self, sc: CompactSC, lod: int, measure: Measure) -> None:
        self.sc = sc
        self.measure = measure.name
        entries = sc.frontier(lod)
        self.values = array(
            "d",
            [
                measure.value(sc.own_pairs(position) if view else sc.subtree_pairs(position))
                for position, view in entries
            ],
        )
        order = list(range(len(entries)))
        if lod != 0:
            values = self.values
            order.sort(key=lambda slot: (-values[slot], slot))
        self.entries = [(entries[slot], self.values[slot]) for slot in order]

    def _span(self, position: int, view: bool) -> Tuple[int, int]:
        offsets = self.sc.offsets
        end = position + 1 if view else self.sc.ends[position]
        return offsets[position], offsets[end]

    def segments(self) -> List[ScheduledSegment]:
        """Per-unit (label, byte size, content) in transmission order."""
        labels = self.sc.labels
        result: List[ScheduledSegment] = []
        for (position, view), content in self.entries:
            start, end = self._span(position, view)
            if end == start:
                continue
            label = f"{labels[position]}(title)" if view else labels[position]
            result.append(ScheduledSegment(label, end - start, content))
        return result

    def payload(self) -> bytes:
        """The document bytes in transmission order."""
        payload = memoryview(self.sc.payload)
        return b"".join(
            payload[slice(*self._span(position, view))]
            for (position, view), _content in self.entries
        )
