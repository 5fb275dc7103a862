"""The compact structural characteristic: one document's SC as flat arrays.

The paper builds a document's SC once (§3.3) and re-scores it for every
query (§3.2); XML retrieval systems likewise index structure once and
score it at query time (arXiv:1111.6349).  :class:`CompactSC` is that
index for one document, frozen after construction.  It stores only
what cannot be derived:

* units in preorder (document order), with their LOD and virtual flag
  as one byte each, the exclusive end of each unit's subtree in an
  ``array``, and labels and titles as tuples of interned strings (a
  corpus repeats a few labels and titles in every document);
* the unit text as one zlib buffer with per-unit offsets: a subtree's
  payload is one contiguous slice, because preorder is document order.
  The text is decompressed once per read of :attr:`CompactSC.payload`
  (once per cook, once per tree rebuild), never once per unit;
* a :class:`KeywordTable` of the document's keywords in
  occurrence-vector order with their counts and the vector's norm.  It
  holds each keyword as an id into a :class:`Vocabulary`, which the
  pipeline shares across every document it builds: a corpus repeats
  its keywords, and each string is held once;
* each unit's own keyword counts as ``(keyword id, count)`` runs in
  ``array`` buffers.

Derived on demand, and held only while a caller uses them:

* the keyword weights, from the counts and the norm
  (:attr:`KeywordTable.weights`);
* each inner unit's subtree aggregate, summed from the own runs in
  reverse preorder with :func:`add_counts` (own keywords first, then
  each child's in turn): the key order the tree's dict aggregation
  produces, so a measure sums its terms in exactly the tree's order.
  A schedule sums each frontier subtree once; :attr:`CompactSC.aggregate`
  gives all of them in the packed form.

The pipeline's last stage fills a :class:`CompactSC` from its unit
tree; :meth:`CompactSC.from_tree` compacts an ``OrganizationalUnit``
tree with the same constructor and reads none of its aggregates.

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
import threading
import zlib
from array import array
from itertools import accumulate, chain
from operator import attrgetter, itemgetter
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.text.vector import OccurrenceVector, vector_norm, weights_by_count

#: Unsigned typecodes from narrowest to widest; each integer buffer
#: takes the narrowest that holds its largest value.
_TYPECODES = "BHILQ"
_LIMITS = {code: 1 << (8 * array(code).itemsize) for code in _TYPECODES}


def _packed(values: Sequence[int]) -> array:
    """*values* in the narrowest unsigned ``array`` that holds them."""
    try:
        return array("B", bytes(values))  # the common case, converted in C
    except ValueError:
        top = max(values)
    for code in _TYPECODES[1:-1]:
        if top < _LIMITS[code]:
            return array(code, values)
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


class Vocabulary:
    """keyword ↔ id for every SC one pipeline builds.

    A corpus repeats its keywords across documents; each keyword table
    holds ids into one vocabulary instead of its own tuple of strings.
    Append-only: ids are given in first-seen order and never change,
    and :meth:`ids` appends under a lock, so concurrent builds agree on
    every id.  :meth:`get` and :meth:`known` read without appending, for
    words that come from outside (client queries), as
    :meth:`Lemmatizer.reader <repro.text.lemmatizer.Lemmatizer.reader>`
    reads the lemma memo.
    """

    __slots__ = ("_ids", "_words", "_lock")

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._words: List[str] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._words)

    def ids(self, words: Sequence[str]) -> List[int]:
        """The id of each of *words*, appending the ones not held yet."""
        ids = list(map(self._ids.get, words))
        if None in ids:
            with self._lock:
                held, known = self._words, self._ids
                for slot, word in enumerate(words):
                    if ids[slot] is None:
                        ident = known.get(word)
                        if ident is None:
                            ident = len(held)
                            held.append(word)  # before the id, for lock-free readers
                            known[word] = ident
                        ids[slot] = ident
        return ids

    def get(self, word: str) -> Optional[int]:
        """*word*'s id, or None when no SC holds it; never appends."""
        return self._ids.get(word)

    def known(self, words: Iterable[str]) -> FrozenSet[int]:
        """The ids of those of *words* some SC holds; never appends."""
        return frozenset(map(self._ids.get, words)) - {None}

    def words(self, ids: Iterable[int]) -> Tuple[str, ...]:
        """The keywords of *ids*, in their order."""
        return tuple(map(self._words.__getitem__, ids))


class KeywordTable:
    """A document's keywords in occurrence-vector order.

    Ids ``0 .. len(counts) - 1`` are the vector's keywords with their
    counts; any keyword in *unit_counts* that the vector lacks follows
    them, with weight 0 (the vector's convention for absent keywords).
    Without *unit_counts* the vector is taken to hold every keyword, as
    it does when it is the root's aggregate.  These ids are the
    document's own, and the own runs use them; per id, the table stores
    the keyword's id in *vocabulary* (a private one when none is
    given), and :attr:`keywords` reads the strings back.  The weights
    are not stored: :attr:`weights` derives them from the counts and
    the norm.
    """

    __slots__ = ("vocabulary", "_packed", "counts", "norm")

    def __init__(
        self,
        vector: OccurrenceVector,
        unit_counts: Optional[Iterable[Mapping[str, int]]] = None,
        vocabulary: Optional[Vocabulary] = None,
    ) -> None:
        self._fill(vector, unit_counts, vocabulary)

    @classmethod
    def indexed(
        cls,
        vector: OccurrenceVector,
        unit_counts: Optional[Iterable[Mapping[str, int]]] = None,
        vocabulary: Optional[Vocabulary] = None,
    ) -> Tuple["KeywordTable", Dict[str, int]]:
        """A new table and its :meth:`index`, made from the keyword list
        the table is built from rather than read back from the
        vocabulary."""
        table = cls.__new__(cls)
        keywords = table._fill(vector, unit_counts, vocabulary)
        return table, dict(zip(keywords, range(len(keywords))))

    def _fill(
        self,
        vector: OccurrenceVector,
        unit_counts: Optional[Iterable[Mapping[str, int]]],
        vocabulary: Optional[Vocabulary],
    ) -> List[str]:
        """Set every field; returns the keywords in id order."""
        keywords = list(vector)
        if unit_counts is not None:
            known = set(keywords)
            keywords += [
                keyword
                for keyword in dict.fromkeys(chain.from_iterable(unit_counts))
                if keyword not in known
            ]
        self.vocabulary = vocabulary if vocabulary is not None else Vocabulary()
        self._packed = _packed(self.vocabulary.ids(keywords))
        self.counts = _packed(list(map(itemgetter(1), vector.items())))
        self.norm: str = vector.norm_kind
        return keywords

    def __len__(self) -> int:
        return len(self._packed)

    @property
    def keywords(self) -> Tuple[str, ...]:
        """The keyword of each id, a fresh tuple of the vocabulary's strings."""
        return self.vocabulary.words(self._packed)

    @property
    def weights(self) -> array:
        """ω_a per keyword id, as :meth:`OccurrenceVector.weights` gives
        them, then 0.0 for each keyword the vector lacks; a fresh array."""
        counts = self.counts
        by_count = weights_by_count(counts, vector_norm(counts, self.norm))
        weights = array("d", map(by_count.__getitem__, counts))
        weights.extend([0.0] * (len(self) - len(counts)))
        return weights

    def index(self) -> Dict[str, int]:
        """keyword → id, for callers that hold keyword-keyed counts."""
        return dict(zip(self.keywords, range(len(self))))

    def holds_any(self, ids: AbstractSet[int]) -> bool:
        """Whether any of the vocabulary *ids* is one of this table's."""
        return not ids.isdisjoint(self._packed)

    def vector_pairs(self) -> Pairs:
        """The occurrence vector as ``(id, count)`` pairs, in vector order."""
        return enumerate(self.counts)

    def lookup(self, values: Mapping[str, float]) -> array:
        """``values`` per keyword id, 0.0 where a keyword has none."""
        table = array("d", bytes(8 * len(self)))
        for keyword, value in values.items():
            ident = self.vocabulary.get(keyword)
            if ident is None:
                continue
            try:
                table[self._packed.index(ident)] = value
            except ValueError:
                continue
        return table

    def vector(self) -> OccurrenceVector:
        """A fresh occurrence vector equal to the one compacted."""
        return OccurrenceVector(dict(zip(self.keywords, self.counts)), norm=self.norm)

    @property
    def nbytes(self) -> int:
        """Bytes held: the vocabulary ids and the counts.  The keyword
        strings are the vocabulary's, held once for every table."""
        return sys.getsizeof(self._packed) + sys.getsizeof(self.counts)


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


def add_counts(total: Dict[str, int], counts: Mapping[str, int]) -> None:
    """Add *counts* into *total*; keywords new to *total* go last, in order.

    This is the one way keyword counts are summed, so every sum over a
    subtree or a document has the same key order and values.
    """
    if total.keys().isdisjoint(counts):
        total.update(counts)  # all keys new: appended in order, in C
        return
    get = total.get
    for keyword, count in counts.items():
        total[keyword] = get(keyword, 0) + count


def subtree_ends(units: Sequence) -> List[int]:
    """Where each unit's subtree ends, for *units* in preorder.

    Units list their ``children``.  A subtree ends after its last
    child's; filled in reverse preorder, one hop per child.
    """
    ends = list(range(1, len(units) + 1))
    for position in reversed(range(len(units))):
        end = position + 1
        for _child in units[position].children:
            end = ends[end]
        ends[position] = end
    return ends


def _flatten(
    runs: Sequence[Mapping], ids: Optional[Mapping[str, int]] = None
) -> Tuple[array, array]:
    """*runs* as one interleaved ``(keyword id, count)`` buffer plus the
    start of each run; keyword-keyed runs are mapped through *ids*."""
    keys = list(chain.from_iterable(runs))
    if ids is not None:
        keys = list(map(ids.__getitem__, keys))
    flat = keys * 2
    flat[0::2] = keys
    flat[1::2] = chain.from_iterable(map(dict.values, runs))
    starts = list(accumulate(map(len, runs), initial=0))
    return _packed(flat), _packed([2 * start for start in starts])


def _aggregates(owns: Sequence[Mapping], ends: Sequence[int]) -> List[Mapping]:
    """Each inner unit's subtree aggregate, and an empty one per leaf.

    A leaf's aggregate is its own counts, not summed twice.  Units are
    summed in reverse preorder, so children before their parent: own
    counts first, then each child's in turn.
    """
    aggregates: List[Mapping] = [{}] * len(owns)
    for position in reversed(range(len(owns))):
        child = position + 1
        end = ends[position]
        if child == end:
            continue
        total = dict(owns[position])
        while child < end:
            child_end = ends[child]
            add_counts(total, aggregates[child] if child_end > child + 1 else owns[child])
            child = child_end
        aggregates[position] = total
    return aggregates


def _pairs(runs: array, start: int, end: int) -> Iterator[Tuple[int, int]]:
    chunk = runs[start:end]
    return zip(chunk[0::2], chunk[1::2])


class CompactSC:
    """One document's SC as flat, read-only arrays (see the module doc).

    Build it from a unit tree's preorder, or with :meth:`from_tree` from
    an SC tree's root and vector;
    :meth:`repro.core.structure.StructuralCharacteristic.from_compact`
    turns it back into a tree.
    """

    __slots__ = (
        "lods",
        "virtual",
        "ends",
        "labels",
        "titles",
        "compressed",
        "offsets",
        "table",
        "own",
        "own_starts",
    )

    def __init__(
        self,
        units: Sequence,
        ends: Sequence[int],
        payloads: Sequence[bytes],
        owns: Sequence[Mapping[str, int]],
        vector: Optional[OccurrenceVector] = None,
        vocabulary: Optional[Vocabulary] = None,
    ) -> None:
        """Compact *units*, in preorder with their :func:`subtree_ends`.

        Units have ``lod``, ``label``, ``title`` and ``virtual``, and are
        only read; *payloads* and *owns* are their own bytes and counts.
        Without a *vector*, the document's is the root's aggregate, or
        the placeholder ``{"_": 1}`` when no unit has a keyword.  The
        keyword table's ids go into *vocabulary* (see
        :class:`KeywordTable`).
        """
        # The root's aggregate: every unit's counts summed in preorder
        # has the same keys, values and key order as the subtree sums.
        # It holds every unit's keywords, so a vector made from it
        # misses none of them.
        total: Dict[str, int] = {}
        for counts in owns:
            add_counts(total, counts)
        if vector is None:
            self.table, index = KeywordTable.indexed(
                OccurrenceVector(total or {"_": 1}), None, vocabulary
            )
        else:
            self.table, index = KeywordTable.indexed(vector, [total], vocabulary)
        self.lods = bytes(map(attrgetter("lod"), units))
        self.virtual = bytes(map(attrgetter("virtual"), units))
        self.ends = _packed(ends)
        self.labels: Tuple[str, ...] = tuple(map(sys.intern, map(attrgetter("label"), units)))
        self.titles: Tuple[str, ...] = tuple(map(sys.intern, map(attrgetter("title"), units)))
        self.compressed = zlib.compress(b"".join(payloads), 1)
        self.offsets = _packed(list(accumulate(map(len, payloads), initial=0)))
        self.own, self.own_starts = _flatten(owns, index)

    @classmethod
    def from_tree(cls, root, vector: OccurrenceVector) -> "CompactSC":
        """Compact the unit tree under *root* and its occurrence vector.

        *root* is an :class:`~repro.core.structure.OrganizationalUnit`
        tree: units with ``lod``, ``label``, ``title``, ``own_counts``,
        ``payload``, ``virtual`` and ``children``; it is only read.
        """
        units = list(root.walk())
        payloads = list(map(attrgetter("payload"), units))
        owns = list(map(attrgetter("own_counts"), units))
        return cls(units, subtree_ends(units), payloads, owns, vector)

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

    def own_counts(self, position: int) -> Dict[int, int]:
        """The unit's own counts as a fresh ``keyword id → count`` dict."""
        return dict(self.own_pairs(position))

    def subtree_counts(self, position: int) -> Dict[int, int]:
        """The subtree aggregate as a fresh ``keyword id → count`` dict.

        Summed from the own runs of the subtree alone, in the order
        :func:`_aggregates` sums the whole document.
        """
        end = self.ends[position]
        owns = list(map(self.own_counts, range(position, end)))
        if end == position + 1:
            return owns[0]
        ends = [unit_end - position for unit_end in self.ends[position:end]]
        return _aggregates(owns, ends)[0]

    def subtree_pairs(self, position: int) -> Iterator[Tuple[int, int]]:
        """The subtree aggregate's pairs (a leaf's are its own)."""
        if self.is_leaf(position):
            return self.own_pairs(position)
        return iter(self.subtree_counts(position).items())

    def _aggregate_runs(self) -> Tuple[array, array]:
        """Every inner unit's subtree aggregate as packed ``(keyword id,
        count)`` runs, a leaf's run empty, plus the start of each run."""
        owns = list(map(self.own_counts, range(len(self.lods))))
        return _flatten(_aggregates(owns, self.ends))

    @property
    def aggregate(self) -> array:
        """Every inner unit's subtree aggregate as packed runs, derived afresh."""
        return self._aggregate_runs()[0]

    @property
    def aggregate_starts(self) -> array:
        """The start of each unit's run in :attr:`aggregate`, derived afresh."""
        return self._aggregate_runs()[1]

    @property
    def payload(self) -> bytes:
        """The unit text in document order, decompressed afresh: a caller
        that reads several units' bytes slices one read of it."""
        return zlib.decompress(self.compressed)

    def own_payload(self, position: int) -> bytes:
        return self.payload[self.offsets[position] : self.offsets[position + 1]]

    @property
    def payload_size(self) -> int:
        return self.offsets[-1]

    @property
    def nbytes(self) -> int:
        """Bytes held by the arrays, the compressed text and the strings.

        Keyword strings are not counted: the pipeline's lemmatizer
        already holds every lemma, and its vocabulary every keyword.
        Labels, titles and the structure buffers are, once each,
        although another document may share them.
        """
        buffers = (
            self.lods,
            self.virtual,
            self.ends,
            self.labels,
            self.titles,
            self.compressed,
            self.offsets,
            self.own,
            self.own_starts,
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
    only *measure*, into a fresh ``array('d')``, summing each ranked
    inner unit's subtree aggregate once.
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
        """The document bytes in transmission order (one decompression)."""
        payload = memoryview(self.sc.payload)
        return b"".join(
            payload[slice(*self._span(position, view))]
            for (position, view), _content in self.entries
        )
