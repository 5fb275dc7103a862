"""The search engine tying the corpus to QIC-ordered browsing.

A :class:`SearchEngine` holds one frozen
:class:`~repro.core.compact.CompactSC` per document of a corpus, serves
ranked keyword queries (tf–idf cosine, the "vector space model ...
shown to be competitive with alternative methods" the paper cites), and
— the part specific to this paper — gives each hit its own SC,
annotated with the QIC/MQIC of that query, so the document can
immediately be scheduled for multi-resolution transmission in
query-relevance order (§3.2–3.3: "the QIC of each organizational unit
is determined every time the search engine receives a searching
query").  The index reads each document's keyword counts from its
compact keyword table; no stored tree is ever annotated.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, NamedTuple, Optional

from repro.core.compact import CompactSC
from repro.core.information import annotate_sc
from repro.core.pipeline import SCPipeline
from repro.core.query import Query
from repro.core.structure import StructuralCharacteristic
from repro.search.index import InvertedIndex
from repro.xmlkit.dom import Document


class SearchHit(NamedTuple):
    """One ranked result; its SC is the hit's own, annotated for the query."""

    document_id: str
    score: float
    sc: StructuralCharacteristic


class SearchEngine:
    """Corpus index + query-time QIC annotation."""

    def __init__(self, pipeline: Optional[SCPipeline] = None) -> None:
        self._pipeline = pipeline if pipeline is not None else SCPipeline()
        self._index = InvertedIndex()
        self._compacts: Dict[str, CompactSC] = {}

    # -- corpus management -------------------------------------------------

    def add_document(self, document_id: str, document: Document) -> StructuralCharacteristic:
        """Pipeline a document into its SC and index it."""
        sc = self._pipeline.run(document)
        self.add_sc(document_id, sc)
        return sc

    def add_sc(self, document_id: str, sc: StructuralCharacteristic) -> None:
        """Index a pre-built SC (e.g. from the HTML extractor).

        The engine keeps ``sc.compact()``: for an SC whose tree was never
        built, the very :class:`CompactSC` it was made from.
        """
        compact = sc.compact()
        table = compact.table
        self._compacts[document_id] = compact
        self._index.add_document(document_id, dict(zip(table.keywords, table.counts)))

    def remove_document(self, document_id: str) -> None:
        self._index.remove_document(document_id)
        self._compacts.pop(document_id, None)

    @property
    def size(self) -> int:
        return len(self._compacts)

    def sc(self, document_id: str) -> Optional[StructuralCharacteristic]:
        """A fresh, unannotated SC of an indexed document (None if absent)."""
        compact = self._compacts.get(document_id)
        return None if compact is None else StructuralCharacteristic.from_compact(compact)

    # -- querying ----------------------------------------------------------------

    def parse_query(self, text: str) -> Query:
        """Parse *text* with the corpus pipeline's lemmatizer.

        Query words read the lemmatizer's memo but never add to it, so
        client queries cannot grow it without bound.
        """
        from repro.text.keywords import KeywordExtractor

        extractor = KeywordExtractor(lemmatizer=self._pipeline.shared_lemmatizer.reader())
        return Query(text, extractor=extractor)

    def search_boolean(self, text: str, limit: int = 10) -> List[SearchHit]:
        """Boolean retrieval (AND/OR/NOT/phrases) with tf-idf ranking.

        The boolean expression selects the candidate set; ranking then
        uses the expression's positive terms as a bag-of-words query.
        QIC annotation works as in :meth:`search`.
        """
        from repro.search.boolean import evaluate_boolean

        matches = evaluate_boolean(
            text, self._index, set(self._compacts),
            lemmatizer=self._pipeline.shared_lemmatizer.reader(),
        )
        if not matches:
            return []
        # Rank by the plain-term content of the expression.
        bag = " ".join(
            token for token in text.replace("(", " ").replace(")", " ").split()
            if token.upper() not in ("AND", "OR", "NOT")
        ).replace('"', " ")
        query = self.parse_query(bag)
        scores = self._score(query)
        ranked = sorted(
            matches, key=lambda doc: (-scores.get(doc, 0.0), doc)
        )[:limit]
        return self._hits(ranked, scores, query)

    def search(self, text: str, limit: int = 10) -> List[SearchHit]:
        """Ranked hits for *text*, each with a QIC/MQIC-annotated SC."""
        query = self.parse_query(text)
        if query.is_empty:
            return []
        scores = self._score(query)
        ranked = sorted(scores, key=lambda doc: (-scores[doc], doc))[:limit]
        return self._hits(ranked, scores, query)

    def _hits(
        self, ranked: Iterable[str], scores: Dict[str, float], query: Query
    ) -> List[SearchHit]:
        """A hit per ranked document, each with a fresh SC annotated for
        *query* alone."""
        document_frequency = self._index.document_frequencies()
        corpus_size = max(1, self._index.document_count)
        hits: List[SearchHit] = []
        for document_id in ranked:
            sc = StructuralCharacteristic.from_compact(self._compacts[document_id])
            annotate_sc(
                sc,
                query=query,
                document_frequency=document_frequency,
                corpus_size=corpus_size,
            )
            hits.append(SearchHit(document_id, scores.get(document_id, 0.0), sc))
        return hits

    def _score(self, query: Query) -> Dict[str, float]:
        """tf–idf cosine scores over the candidate set."""
        n = max(1, self._index.document_count)
        scores: Dict[str, float] = {}
        norms: Dict[str, float] = {}
        # Sorted, so a score's sum does not follow the string hash seed.
        for term in sorted(query.keywords()):
            df = self._index.document_frequency(term)
            if df == 0:
                continue
            idf = math.log((1 + n) / df) + 1.0
            query_weight = query.count(term) * idf
            for posting in self._index.postings(term):
                contribution = posting.frequency * idf * query_weight
                scores[posting.document_id] = (
                    scores.get(posting.document_id, 0.0) + contribution
                )
        for document_id in scores:
            length = self._index.document_length(document_id) or 1
            norms[document_id] = math.sqrt(length)
        return {
            document_id: score / norms[document_id]
            for document_id, score in scores.items()
        }
