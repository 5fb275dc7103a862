"""Information-content measures: IC, QIC, MQIC, and alternatives.

Implements §3.1–3.2 of the paper.  Every measure maps an
organizational unit to a value normalized against the whole document,
so the document's value is 1 and the *additive rule* holds: a unit's
value is the sum of its sub-units' values (plus its intrinsic text,
e.g. a section title).

Measures
--------
``StaticIC``
    p_i = Σ_{a∈n_i} |a_{n_i}|·ω_a  /  Σ_{d∈D} |d_D|·ω_d, with keyword
    weight ω_a = 1 − log2(|a_D| / ‖V_D‖∞).
``QueryIC``
    q_i^Q — same shape but each term is multiplied by the querying-word
    weight ω_a^Q, and the sums range over keywords present in both the
    unit/document and the query.  Units without querying words score 0.
``ModifiedQueryIC``
    q̃_i^Q — replaces the weight product by ω_a + λ·ω_a^Q, where the
    scaling factor λ = (Σ_a |a_D|) / (Σ_a |a_Q|) puts the two weight
    scales in comparable range; no unit scores exactly 0 merely for
    lacking querying words.
``ProportionalIC`` / ``TfIdfIC``
    Alternative definitions (§6 "alternative ways of defining the
    information content would be explored").

The arithmetic of every measure lives once, in
:mod:`repro.core.compact`; the classes here apply it to an SC tree's
dicts, and the preparation service applies it to a cached
:class:`~repro.core.compact.CompactSC` through :func:`serve_measure`.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Protocol, Tuple

from repro.core.compact import (
    KeywordTable,
    Measure,
    modified_query_measure,
    proportional_measure,
    query_measure,
    query_scale,
    static_measure,
    tfidf_measure,
)
from repro.core.query import Query
from repro.core.structure import OrganizationalUnit, StructuralCharacteristic


def _query_weights(query: Query) -> Dict[str, float]:
    """ω_a^Q for every querying word; absent words weigh 0 (§3.2)."""
    return {keyword: query.weight(keyword) for keyword in query.keywords()}


def keyword_table(sc: StructuralCharacteristic) -> KeywordTable:
    """The keyword table of an SC tree (vector order, then stragglers)."""
    return KeywordTable(sc.vector, (unit.own_counts for unit in sc.root.walk()))


def serve_measure(table: KeywordTable, name: str, query: Optional[Query] = None) -> Measure:
    """The measure a request names, over a compact SC's keyword table.

    ``qic`` and ``mqic`` need a query with keywords; without one they
    raise ``ValueError``, as does an unknown name.
    """
    if name == "ic":
        return static_measure(table)
    if name == "proportional":
        return proportional_measure(table)
    if name in ("qic", "mqic"):
        if query is None or query.is_empty:
            raise ValueError(f"measure {name!r} needs a query with keywords")
        if name == "qic":
            return query_measure(table, _query_weights(query))
        return modified_query_measure(
            table, _query_weights(query), query.total_occurrences()
        )
    raise ValueError(f"unknown measure {name!r}")


class ContentMeasure(Protocol):
    """A normalized content measure over organizational units."""

    #: Key under which :func:`annotate_sc` stores values in ``unit.content``.
    name: str

    def value(self, unit: OrganizationalUnit) -> float:
        """Normalized content of *unit* (1.0 for the whole document)."""
        ...


class _TreeMeasure:
    """A :class:`~repro.core.compact.Measure` read off a tree's dicts.

    The arithmetic is the compact measure's; this class only maps a
    unit's keyword-keyed counts to ``(keyword id, count)`` pairs, in
    the dicts' own order.
    """

    name = ""

    def __init__(self, measure: Measure, table: KeywordTable) -> None:
        self._measure = measure
        self._index = table.index()

    def _pairs(self, counts: Mapping[str, int]) -> Iterator[Tuple[int, int]]:
        return zip(map(self._index.__getitem__, counts), counts.values())

    def value(self, unit: OrganizationalUnit) -> float:
        """Normalized content of the unit's subtree."""
        return self._measure.value(self._pairs(unit._aggregate()))

    def value_own(self, unit: OrganizationalUnit) -> float:
        """Content of the unit's intrinsic text only (title words)."""
        return self._measure.value(self._pairs(unit.own_counts))


class StaticIC(_TreeMeasure):
    """The paper's information content p_i (§3.1)."""

    name = "ic"

    def __init__(self, sc: StructuralCharacteristic) -> None:
        table = keyword_table(sc)
        super().__init__(static_measure(table), table)


class QueryIC(_TreeMeasure):
    """Query-based information content q_i^Q (§3.2, product form)."""

    name = "qic"

    def __init__(self, sc: StructuralCharacteristic, query: Query) -> None:
        table = keyword_table(sc)
        super().__init__(query_measure(table, _query_weights(query)), table)


class ModifiedQueryIC(_TreeMeasure):
    """Modified query-based information content q̃_i^Q (§3.2, sum form)."""

    name = "mqic"

    def __init__(self, sc: StructuralCharacteristic, query: Query) -> None:
        table = keyword_table(sc)
        query_total = query.total_occurrences()
        self._scale = query_scale(table, query_total)
        super().__init__(
            modified_query_measure(table, _query_weights(query), query_total), table
        )

    @property
    def scale(self) -> float:
        """The λ scaling factor between document and query weights."""
        return self._scale


class ProportionalIC(_TreeMeasure):
    """Occurrence-share measure: a unit's share of total keyword mass.

    The simplest alternative definition — every keyword occurrence
    counts equally.  Equivalent to ``StaticIC`` with all weights 1.
    """

    name = "proportional"

    def __init__(self, sc: StructuralCharacteristic) -> None:
        table = keyword_table(sc)
        super().__init__(proportional_measure(table), table)


class TfIdfIC(_TreeMeasure):
    """tf–idf-weighted content measure against a background corpus.

    *document_frequency* maps a keyword to the number of corpus
    documents containing it; *corpus_size* is the corpus cardinality.
    Keywords absent from the mapping are treated as unique to this
    document (df = 1), giving them maximal idf.
    """

    name = "tfidf"

    def __init__(
        self,
        sc: StructuralCharacteristic,
        document_frequency: Mapping[str, int],
        corpus_size: int,
    ) -> None:
        if corpus_size <= 0:
            raise ValueError("corpus_size must be positive")
        table = keyword_table(sc)
        super().__init__(tfidf_measure(table, document_frequency, corpus_size), table)


def annotate_sc(
    sc: StructuralCharacteristic,
    query: Optional[Query] = None,
    document_frequency: Optional[Mapping[str, int]] = None,
    corpus_size: Optional[int] = None,
) -> Dict[str, object]:
    """Annotate every unit of *sc* with all applicable measures.

    Always computes ``ic`` and ``proportional``; adds ``qic`` and
    ``mqic`` when a query is given, and ``tfidf`` when corpus
    statistics are given.  Returns the measure objects by name.
    """
    measures: Dict[str, object] = {}
    static = StaticIC(sc)
    sc.annotate(static.name, static.value, static.value_own)
    measures[static.name] = static

    proportional = ProportionalIC(sc)
    sc.annotate(proportional.name, proportional.value, proportional.value_own)
    measures[proportional.name] = proportional

    if query is not None and not query.is_empty:
        qic = QueryIC(sc, query)
        sc.annotate(qic.name, qic.value, qic.value_own)
        measures[qic.name] = qic
        mqic = ModifiedQueryIC(sc, query)
        sc.annotate(mqic.name, mqic.value, mqic.value_own)
        measures[mqic.name] = mqic

    if document_frequency is not None and corpus_size is not None:
        tfidf = TfIdfIC(sc, document_frequency, corpus_size)
        sc.annotate(tfidf.name, tfidf.value, tfidf.value_own)
        measures[tfidf.name] = tfidf

    return measures
