"""Document clusters: hierarchically linked related pages.

The paper's notion of a *document* is broader than one page: "it may
also include a collection of hierarchically linked related pages,
composing a larger document" (§1), and its future work plans
"intelligent prefetching based on information content and
user-profiling" over such clusters (§6).

A :class:`DocumentCluster` is a directed graph of pages, each with its
own structural characteristic.  Cluster-level content scores combine
each page's keyword mass with its link distance from the entry page,
producing the prefetch priority order used by
:meth:`prefetch_candidates`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.structure import StructuralCharacteristic
from repro.prep import DocumentSender
from repro.transport.prefetch import PrefetchCandidate
from repro.util.validation import check_fraction


class ClusterError(Exception):
    """Unknown page or malformed cluster."""


class DocumentCluster:
    """A linked collection of pages forming one logical document.

    Parameters
    ----------
    entry_page:
        The page a browsing session lands on first (the cluster root).
    distance_decay:
        Multiplier applied to a page's content score per link hop from
        the entry page — nearer pages are likelier to be visited next.
    """

    def __init__(self, entry_page: str, distance_decay: float = 0.7) -> None:
        check_fraction(distance_decay, "distance_decay")
        self.entry_page = entry_page
        self.distance_decay = distance_decay
        self._scs: Dict[str, StructuralCharacteristic] = {}
        self._links: Dict[str, List[str]] = {}

    # -- construction -----------------------------------------------------

    def add_page(
        self,
        page_id: str,
        sc: StructuralCharacteristic,
        links: Iterable[str] = (),
    ) -> None:
        """Add (or replace) a page and its outgoing links.

        Links to pages not yet added are allowed — the web is built in
        any order — but traversals silently skip targets that never
        materialize.
        """
        self._scs[page_id] = sc
        self._links[page_id] = list(dict.fromkeys(links))  # dedupe, keep order

    def __contains__(self, page_id: str) -> bool:
        return page_id in self._scs

    def __len__(self) -> int:
        return len(self._scs)

    def page(self, page_id: str) -> StructuralCharacteristic:
        sc = self._scs.get(page_id)
        if sc is None:
            raise ClusterError(f"unknown page {page_id!r}")
        return sc

    def links(self, page_id: str) -> List[str]:
        if page_id not in self._scs:
            raise ClusterError(f"unknown page {page_id!r}")
        return [target for target in self._links[page_id] if target in self._scs]

    # -- traversal --------------------------------------------------------------

    def distances(self, origin: Optional[str] = None) -> Dict[str, int]:
        """BFS link distance of every reachable page from *origin*."""
        start = origin if origin is not None else self.entry_page
        if start not in self._scs:
            raise ClusterError(f"unknown page {start!r}")
        distances = {start: 0}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            for target in self.links(current):
                if target not in distances:
                    distances[target] = distances[current] + 1
                    queue.append(target)
        return distances

    def reachable(self, origin: Optional[str] = None) -> Set[str]:
        return set(self.distances(origin))

    def unreachable_pages(self) -> Set[str]:
        """Pages no link path reaches from the entry (orphans)."""
        return set(self._scs) - self.reachable()

    # -- content scoring -----------------------------------------------------------

    def page_mass(self, page_id: str) -> float:
        """Raw keyword mass of a page (Σ counts weighted by ω)."""
        sc = self.page(page_id)
        return sc.vector.weighted_total()

    def content_scores(self, origin: Optional[str] = None) -> Dict[str, float]:
        """Normalized, distance-decayed content score per reachable page.

        score(p) ∝ mass(p) · decay^distance(p); scores sum to 1 over
        the reachable set, giving the cluster the same "shares of a
        whole" reading as unit information content within one page.
        """
        distances = self.distances(origin)
        raw = {
            page_id: self.page_mass(page_id) * self.distance_decay ** hop
            for page_id, hop in distances.items()
        }
        total = sum(raw.values())
        if total == 0:
            uniform = 1.0 / len(raw)
            return {page_id: uniform for page_id in raw}
        return {page_id: value / total for page_id, value in raw.items()}

    def prefetch_order(self, origin: Optional[str] = None) -> List[str]:
        """Pages in descending content score (entry page excluded)."""
        start = origin if origin is not None else self.entry_page
        scores = self.content_scores(origin)
        ordered = sorted(
            (page_id for page_id in scores if page_id != start),
            key=lambda page_id: (-scores[page_id], page_id),
        )
        return ordered

    def prefetch_candidates(
        self,
        sender: DocumentSender,
        origin: Optional[str] = None,
    ) -> List[PrefetchCandidate]:
        """Cooked prefetch candidates for the idle-bandwidth prefetcher.

        Pages are prepared with the conventional (document-order)
        stream — prefetching happens before any query exists — and
        scored by :meth:`content_scores`.
        """
        scores = self.content_scores(origin)
        candidates: List[PrefetchCandidate] = []
        for page_id in self.prefetch_order(origin):
            payload = self.page(page_id).root.subtree_payload()
            if not payload:
                continue
            prepared = sender.prepare_raw(page_id, payload)
            candidates.append(
                PrefetchCandidate(prepared=prepared, score=scores[page_id])
            )
        return candidates
