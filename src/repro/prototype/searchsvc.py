"""Search servant for the prototype (the "WWW server" side of Fig. 1).

The paper's browsing model starts at a search engine; this servant
puts one behind the ORB so the mobile browser's first interaction —
query in, ranked hits with snippets out — happens through the same
broker as document fetching.  Hit payloads are deliberately small
(id, score, snippet, size): the result list itself must be cheap to
ship over the weak link.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.core.query import Query
from repro.prototype.server import DatabaseGateway
from repro.search.engine import SearchEngine, SearchHit
from repro.search.snippets import make_snippet


class SearchResult(NamedTuple):
    """One entry of the result list shipped to the client."""

    document_id: str
    score: float
    snippet: str
    size_bytes: int


class SearchService:
    """The servant behind the ORB name ``"search"``.

    Shares the gateway's pipeline so query lemmas conflate with the
    corpus, and keeps its engine index in sync with the gateway via
    :meth:`index` (call it after ``gateway.put``).  The engine indexes
    the very compact SC the gateway's preparation service holds.
    """

    def __init__(self, gateway: DatabaseGateway) -> None:
        self._gateway = gateway
        self._engine = SearchEngine(pipeline=gateway.pipeline)

    def index(self, document_id: str) -> None:
        """(Re)index one document already stored in the gateway."""
        self._engine.add_sc(document_id, self._gateway.sc(document_id))

    def index_all(self, document_ids) -> None:
        for document_id in document_ids:
            self.index(document_id)

    @property
    def corpus_size(self) -> int:
        return self._engine.size

    def search(
        self, query_text: str, limit: int = 10, snippet_width: int = 140
    ) -> List[SearchResult]:
        """Ranked results with query-biased snippets."""
        query = self._engine.parse_query(query_text)
        hits = self._engine.search(query_text, limit=limit)
        return self._results(hits, query, snippet_width)

    def search_boolean(
        self, query_text: str, limit: int = 10, snippet_width: int = 140
    ) -> List[SearchResult]:
        """Boolean-filtered variant (AND/OR/NOT/phrases)."""
        hits = self._engine.search_boolean(query_text, limit=limit)
        return self._results(hits, None, snippet_width)

    @staticmethod
    def _results(hits: List[SearchHit], query: Optional[Query], width: int) -> List[SearchResult]:
        return [
            SearchResult(
                document_id=hit.document_id,
                score=hit.score,
                snippet=make_snippet(hit.sc, query=query, width=width),
                size_bytes=hit.sc.size_bytes(),
            )
            for hit in hits
        ]
