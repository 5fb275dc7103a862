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
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Protocol

from repro.core.query import Query
from repro.core.structure import OrganizationalUnit, StructuralCharacteristic
from repro.text.vector import OccurrenceVector


def _query_weights(query: Query) -> Dict[str, float]:
    """ω_a^Q for every querying word; absent words weigh 0 (§3.2)."""
    return {keyword: query.weight(keyword) for keyword in query.keywords()}


class ContentMeasure(Protocol):
    """A normalized content measure over organizational units."""

    #: Key under which :func:`annotate_sc` stores values in ``unit.content``.
    name: str

    def value(self, unit: OrganizationalUnit) -> float:
        """Normalized content of *unit* (1.0 for the whole document)."""
        ...


class StaticIC:
    """The paper's information content p_i (§3.1)."""

    name = "ic"

    def __init__(self, sc: StructuralCharacteristic) -> None:
        self._weights = sc.vector.weights()
        self._denominator = sc.vector.weighted_total()

    def _raw(self, counts: Mapping[str, int]) -> float:
        weights = self._weights
        return sum(
            count * weights.get(keyword, 0.0) for keyword, count in counts.items()
        )

    def value(self, unit: OrganizationalUnit) -> float:
        if self._denominator == 0:
            return 0.0
        return self._raw(unit._aggregate()) / self._denominator

    def value_own(self, unit: OrganizationalUnit) -> float:
        """Content of the unit's intrinsic text only (title words)."""
        if self._denominator == 0:
            return 0.0
        return self._raw(unit.own_counts) / self._denominator


class QueryIC:
    """Query-based information content q_i^Q (§3.2, product form)."""

    name = "qic"

    def __init__(self, sc: StructuralCharacteristic, query: Query) -> None:
        self._weights = sc.vector.weights()
        self._query_weights = _query_weights(query)
        self._denominator = self._raw(dict(sc.vector.items()))

    def _raw(self, counts: Mapping[str, int]) -> float:
        weights, query_weights = self._weights, self._query_weights
        total = 0.0
        for keyword, count in counts.items():
            query_weight = query_weights.get(keyword, 0.0)
            if query_weight == 0.0:
                continue
            total += count * weights.get(keyword, 0.0) * query_weight
        return total

    def value(self, unit: OrganizationalUnit) -> float:
        if self._denominator == 0:
            return 0.0
        return self._raw(unit._aggregate()) / self._denominator

    def value_own(self, unit: OrganizationalUnit) -> float:
        """Content of the unit's intrinsic text only (title words)."""
        if self._denominator == 0:
            return 0.0
        return self._raw(unit.own_counts) / self._denominator


class ModifiedQueryIC:
    """Modified query-based information content q̃_i^Q (§3.2, sum form)."""

    name = "mqic"

    def __init__(self, sc: StructuralCharacteristic, query: Query) -> None:
        self._weights = sc.vector.weights()
        self._query_weights = _query_weights(query)
        query_total = query.total_occurrences()
        document_total = sc.vector.total
        self._scale = document_total / query_total if query_total else 0.0
        self._denominator = self._raw(dict(sc.vector.items()))

    @property
    def scale(self) -> float:
        """The λ scaling factor between document and query weights."""
        return self._scale

    def _raw(self, counts: Mapping[str, int]) -> float:
        weights, query_weights, scale = self._weights, self._query_weights, self._scale
        return sum(
            count
            * (weights.get(keyword, 0.0) + scale * query_weights.get(keyword, 0.0))
            for keyword, count in counts.items()
        )

    def value(self, unit: OrganizationalUnit) -> float:
        if self._denominator == 0:
            return 0.0
        return self._raw(unit._aggregate()) / self._denominator

    def value_own(self, unit: OrganizationalUnit) -> float:
        """Content of the unit's intrinsic text only (title words)."""
        if self._denominator == 0:
            return 0.0
        return self._raw(unit.own_counts) / self._denominator


class ProportionalIC:
    """Occurrence-share measure: a unit's share of total keyword mass.

    The simplest alternative definition — every keyword occurrence
    counts equally.  Equivalent to ``StaticIC`` with all weights 1.
    """

    name = "proportional"

    def __init__(self, sc: StructuralCharacteristic) -> None:
        self._total = sc.vector.total

    def value(self, unit: OrganizationalUnit) -> float:
        if self._total == 0:
            return 0.0
        return sum(unit._aggregate().values()) / self._total

    def value_own(self, unit: OrganizationalUnit) -> float:
        """Content of the unit's intrinsic text only (title words)."""
        if self._total == 0:
            return 0.0
        return sum(unit.own_counts.values()) / self._total


class TfIdfIC:
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
        self._df = dict(document_frequency)
        self._n = corpus_size
        self._denominator = self._raw(dict(sc.vector.items()))

    def _idf(self, keyword: str) -> float:
        df = max(1, self._df.get(keyword, 1))
        return math.log((1 + self._n) / df) + 1.0

    def _raw(self, counts: Mapping[str, int]) -> float:
        return sum(count * self._idf(keyword) for keyword, count in counts.items())

    def value(self, unit: OrganizationalUnit) -> float:
        if self._denominator == 0:
            return 0.0
        return self._raw(unit._aggregate()) / self._denominator

    def value_own(self, unit: OrganizationalUnit) -> float:
        """Content of the unit's intrinsic text only (title words)."""
        if self._denominator == 0:
            return 0.0
        return self._raw(unit.own_counts) / self._denominator


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
