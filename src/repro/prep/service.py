"""The on-demand preparation service: lazy, shared, metered cooking.

:class:`PreparationService` is the single place content preparation
happens anywhere in the codebase.  Given a
:class:`~repro.prep.request.PrepRequest` it lazily runs the paper's
full server-side chain — parse → five-module SC pipeline (§3.3) →
:class:`~repro.core.compact.CompactSC` → the requested measure and
its ranked :class:`~repro.core.compact.CompactSchedule` →
:meth:`~repro.prep.prepare.DocumentSender.prepare` — behind two cache
tiers:

* the **SC tier**, keyed by document content digest (plus the pipeline
  configuration token): pipeline output is query-independent, so one
  frozen compact SC serves every request against the same bytes;
* the **cooked tier**, keyed by the full canonical request tuple
  ``(digest, lod, measure, query_key, packet_size, gamma, systematic,
  delivery)``: byte-identical requests share one encode.

Both tiers use byte-budget LRU eviction
(:class:`~repro.prep.cache.ByteBudgetLRU`).  Concurrent misses for the
same key are **single-flighted**: exactly one caller runs the pipeline
and encode, everyone else blocks on the flight and shares the result.
The mechanism is a plain ``threading.Event``, which is correct both
for plain threads (transport/prototype callers) and for asyncio
callers that off-load via :meth:`PreparationService.prepare_async` /
``run_in_executor`` (the :class:`~repro.net.server.NetServer` does).

Telemetry (``prep.hits`` / ``prep.misses`` / ``prep.evictions``
labeled by tier, the ``prep.inflight`` gauge, ``prep.*.seconds``
stage timers) flows through :mod:`repro.obs` when enabled; the plain
:attr:`PreparationService.stats` counters are always on.
"""

from __future__ import annotations

import hashlib
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.coding.packets import Packetizer
from repro.core.compact import CompactSC
# ``annotate_sc`` is not called here: ``benchmarks/perf/layers.py``
# wraps ``repro.prep.service.annotate_sc`` by name when it traces a
# server, so the name stays importable from this module.
from repro.core.information import annotate_sc, serve_measure  # noqa: F401
from repro.core.pipeline import SCPipeline
from repro.core.query import Query
from repro.core.structure import StructuralCharacteristic
from repro.obs.runtime import OBS
from repro.obs.timing import timed
from repro.prep.cache import MISS, ByteBudgetLRU
from repro.prep.diskstore import DiskCookedStore
from repro.prep.prepare import DocumentSender, PreparedDocument
from repro.prep.request import PrepRequest
from repro.text.keywords import KeywordExtractor
from repro.xmlkit.parser import parse_xml

#: Default byte budgets: generous for a document corpus, small enough
#: that a long-lived server cannot grow without bound.
DEFAULT_SC_BUDGET = 64 * 1024 * 1024
DEFAULT_COOKED_BUDGET = 256 * 1024 * 1024


class UnknownDocumentError(KeyError):
    """The requested document_id is not registered with the service."""


class _SourceRecord:
    """One registered document: source text, origin, content digest."""

    __slots__ = ("document_id", "source", "html", "digest", "path")

    def __init__(
        self,
        document_id: str,
        source: str,
        html: bool,
        path: Optional[Path],
    ) -> None:
        self.document_id = document_id
        self.source = source
        self.html = html
        self.path = path
        self.digest = content_digest(source, html=html)


class _Flight:
    """One in-progress computation shared by concurrent requesters."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None


def content_digest(source: str, *, html: bool = False) -> str:
    """The cache digest of a document source (parse-mode aware)."""
    hasher = hashlib.sha256(b"html\x00" if html else b"xml\x00")
    hasher.update(source.encode("utf-8"))
    return hasher.hexdigest()


#: Bytes an SC-tier entry holds besides its compact SC's buffers: the
#: ``CompactSC`` and ``KeywordTable`` objects, the tier key and its LRU
#: slot (``tracemalloc``, 64-bit CPython 3.11).
_SC_ENTRY_BYTES = 1050


def _sc_size(sc: CompactSC) -> int:
    """Byte-budget weight of a cached SC: its exact buffer bytes plus
    one per-entry constant, checked against ``tracemalloc`` in
    ``tests/test_prep_sc_memory.py``.
    """
    return sc.nbytes + _SC_ENTRY_BYTES


#: Bytes a cooked entry holds besides its arena, profile and
#: segments: the prepared and cooked document objects, the codec, the
#: arena's views and the tier's LRU slot.
_COOKED_ENTRY_BYTES = 1600
#: Bytes per content-profile share (a list slot and its float).
_PROFILE_ENTRY_BYTES = 32
#: Bytes per scheduled segment beyond its label's characters: the
#: named tuple and its list slot, the label's string header, the
#: content float and the size int.
_SEGMENT_BYTES = 184


def _cooked_size(prepared: PreparedDocument) -> int:
    """Byte-budget weight of a cached cooked document.

    The bytes the entry actually holds: its envelope arena (the one
    stored form of the cooked packets, frames and envelopes alike),
    the content-profile floats, and the scheduled segments with their
    labels.  Sized with ``tracemalloc`` like :func:`_sc_size` and
    checked in ``tests/test_prep_sc_memory.py``.
    """
    segments = prepared.segments or ()
    return (
        _COOKED_ENTRY_BYTES
        + prepared.wire_bytes
        + _PROFILE_ENTRY_BYTES * len(prepared.content_profile)
        + sum(_SEGMENT_BYTES + len(segment.label) for segment in segments)
    )


class PreparationService:
    """Lazy document preparation behind a shared two-tier cache.

    Satisfies the net-server store contract,
    ``prepare(document_id, request)``: a client that sends per-request
    FETCH parameters gets them, one that sends none gets the default
    request, and an unregistered id raises :class:`UnknownDocumentError`
    (a :class:`KeyError`).

    Parameters
    ----------
    pipeline:
        The shared :class:`SCPipeline`; one instance serves every
        document (its configuration is part of the SC-tier key).
    default_request:
        Used by :meth:`warmup` and whenever ``prepare`` receives
        ``request=None``.
    sc_budget_bytes / cooked_budget_bytes:
        LRU byte budgets per tier; ``None`` disables eviction.
    disk_store / disk_path:
        Optional third tier below the cooked LRU: a
        :class:`~repro.prep.diskstore.DiskCookedStore` (or a path to
        create one at).  A disk hit counts as a **cooked-tier hit** —
        the pipeline and encode never ran, the contract a warm restart
        is measured by — and cooked misses persist their bundle so
        sibling workers and future processes share the cook.
    disk_budget_bytes:
        Soft byte budget for a store created from ``disk_path``.
    """

    def __init__(
        self,
        *,
        pipeline: Optional[SCPipeline] = None,
        default_request: Optional[PrepRequest] = None,
        sc_budget_bytes: Optional[int] = DEFAULT_SC_BUDGET,
        cooked_budget_bytes: Optional[int] = DEFAULT_COOKED_BUDGET,
        disk_store: Optional[DiskCookedStore] = None,
        disk_path=None,
        disk_budget_bytes: Optional[int] = None,
    ) -> None:
        self._pipeline = pipeline if pipeline is not None else SCPipeline()
        self.default_request = (
            default_request if default_request is not None else PrepRequest()
        )
        self._sc_tier = ByteBudgetLRU(sc_budget_bytes, name="sc")
        self._cooked_tier = ByteBudgetLRU(cooked_budget_bytes, name="cooked")
        if disk_store is None and disk_path is not None:
            disk_store = DiskCookedStore(disk_path, max_bytes=disk_budget_bytes)
        self._disk = disk_store
        self._records: Dict[str, _SourceRecord] = {}
        self._flights: Dict[Tuple, _Flight] = {}
        self._lock = threading.Lock()
        #: Always-on counters (the OBS ``prep.*`` family mirrors them
        #: when telemetry is enabled).
        self.stats: Dict[str, int] = {
            "sc_hits": 0,
            "sc_misses": 0,
            "cooked_hits": 0,
            "cooked_misses": 0,
            "disk_hits": 0,
            "disk_misses": 0,
            "disk_writes": 0,
            "disk_errors": 0,
            "inflight_waits": 0,
            "evictions": 0,
            "invalidations": 0,
        }
        #: Per-document demand counters (every ``prepare`` call, hit or
        #: miss) — the hotness signal the broadcast carousel ranks by.
        self.document_hits: Dict[str, int] = {}

    @property
    def disk_store(self) -> Optional[DiskCookedStore]:
        """The persistent cooked tier, when configured."""
        return self._disk

    # -- document registry -------------------------------------------------

    def add_document(
        self, document_id: str, source: str, *, html: bool = False
    ) -> str:
        """Register (or refresh) a document source; returns its digest.

        Re-adding unchanged content is a cheap no-op; changed content
        replaces the record and drops every cache entry derived from
        the superseded digest (unless another document still shares
        it).
        """
        record = _SourceRecord(document_id, source, html, path=None)
        return self._install(record)

    def add_path(
        self,
        path,
        *,
        document_id: Optional[str] = None,
        html: bool = False,
    ) -> str:
        """Register a document file; returns the document_id (its stem).

        The path is remembered so :meth:`invalidate` can re-read it.
        """
        path = Path(path)
        if document_id is None:
            document_id = path.stem
        record = _SourceRecord(
            document_id, path.read_text(encoding="utf-8"), html, path=path
        )
        self._install(record)
        return document_id

    def _install(self, record: _SourceRecord) -> str:
        with self._lock:
            previous = self._records.get(record.document_id)
            self._records[record.document_id] = record
        if previous is not None and previous.digest != record.digest:
            self._drop_digest(previous.digest, record.document_id)
        return record.digest

    def remove(self, document_id: str) -> None:
        """Unregister a document and drop its (unshared) cache entries."""
        with self._lock:
            record = self._records.pop(document_id, None)
        if record is None:
            raise UnknownDocumentError(document_id)
        self._drop_digest(record.digest, document_id)

    def invalidate(self, document_id: str) -> int:
        """Force re-preparation of *document_id*; returns entries dropped.

        Path-backed documents are re-read from disk, so an edited file
        gets a new digest and fresh cache entries on the next request;
        in-memory documents simply lose their cached tiers.
        """
        with self._lock:
            record = self._records.get(document_id)
        if record is None:
            raise UnknownDocumentError(document_id)
        self.stats["invalidations"] += 1
        if record.path is not None:
            fresh = _SourceRecord(
                record.document_id,
                record.path.read_text(encoding="utf-8"),
                record.html,
                path=record.path,
            )
            with self._lock:
                self._records[document_id] = fresh
        return self._drop_digest(record.digest, document_id)

    def _drop_digest(self, digest: str, document_id: str) -> int:
        """Drop *document_id*'s entries for *digest* unless another doc shares it.

        The document's own record never counts as a sharer, so
        invalidating it drops even unchanged content.
        """
        with self._lock:
            shared = any(
                record.digest == digest and record.document_id != document_id
                for record in self._records.values()
            )
        if shared:
            return 0
        dropped = self._sc_tier.discard_where(lambda key: key[0] == digest)
        dropped += self._cooked_tier.discard_where(lambda key: key[0] == digest)
        if self._disk is not None:
            dropped += self._disk.drop_digest(digest)
        self._update_size_gauges()
        return dropped

    def digest(self, document_id: str) -> str:
        """The current content digest of a registered document."""
        with self._lock:
            record = self._records.get(document_id)
        if record is None:
            raise UnknownDocumentError(document_id)
        return record.digest

    def document_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._records)

    def __contains__(self, document_id: str) -> bool:
        with self._lock:
            return document_id in self._records

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # -- preparation -------------------------------------------------------

    def prepare(
        self, document_id: str, request: Optional[PrepRequest] = None
    ) -> PreparedDocument:
        """The prepared document for ``(document_id, request)``.

        Cache hit, single-flight wait, or full build — always the same
        bytes for the same canonical request.  Raises
        :class:`UnknownDocumentError` for an unregistered id.
        """
        if request is None:
            request = self.default_request
        with self._lock:
            record = self._records.get(document_id)
        if record is None:
            raise UnknownDocumentError(document_id)
        with self._lock:
            self.document_hits[document_id] = (
                self.document_hits.get(document_id, 0) + 1
            )
        key = request.cache_key(record.digest)
        prepared = self._fetch(
            self._cooked_tier,
            key,
            "cooked",
            lambda: self._build_cooked(record, request),
            _cooked_size,
            # The disk key additionally carries the pipeline token:
            # bundle files outlive this process, so they must not be
            # shared across differently-configured pipelines the way
            # the per-instance memory tier safely can.
            disk_key=key + self._pipeline_token() if self._disk else None,
        )
        return self._with_id(prepared, document_id)

    async def prepare_async(
        self, document_id: str, request: Optional[PrepRequest] = None
    ) -> PreparedDocument:
        """:meth:`prepare` off the event loop (default executor).

        Concurrent coroutines requesting the same key dedupe through
        the same single-flight as plain threads.
        """
        import asyncio
        from functools import partial

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, partial(self.prepare, document_id, request)
        )

    def sc_for(self, document_id: str) -> StructuralCharacteristic:
        """A fresh SC tree rebuilt from the cached compact SC.

        The tree is the caller's own: annotating or editing it never
        touches the cache.
        """
        with self._lock:
            record = self._records.get(document_id)
        if record is None:
            raise UnknownDocumentError(document_id)
        return StructuralCharacteristic.from_compact(self._compact_sc(record))

    def seed_sc(self, document_id: str, sc: StructuralCharacteristic) -> bool:
        """Adopt an externally-built SC for a registered document.

        Lets callers that already ran the pipeline (the prototype's
        eager gateway) donate the result instead of paying a second
        run; a no-op (returns False) when the tier already holds one.
        The tier stores a compact copy, so the donor keeps its tree and
        may go on annotating it.
        """
        with self._lock:
            record = self._records.get(document_id)
        if record is None:
            raise UnknownDocumentError(document_id)
        key = (record.digest, self._pipeline_token())
        if self._sc_tier.peek(key) is not MISS:
            return False
        compact = sc.compact()
        evicted = self._sc_tier.put(key, compact, _sc_size(compact))
        if evicted:
            self.stats["evictions"] += len(evicted)
        self._update_size_gauges()
        return True

    def warmup(
        self,
        document_ids: Optional[Iterable[str]] = None,
        requests: Optional[Iterable[PrepRequest]] = None,
    ) -> int:
        """Prefetch documents × requests into the cache; returns count.

        With no arguments, cooks every registered document with the
        default request — the old eager-at-startup behaviour, now an
        explicit recipe.
        """
        ids = list(document_ids) if document_ids is not None else self.document_ids()
        reqs = list(requests) if requests is not None else [self.default_request]
        count = 0
        for document_id in ids:
            for request in reqs:
                self.prepare(document_id, request)
                count += 1
        return count

    # -- cache internals ---------------------------------------------------

    def _fetch(
        self,
        tier: ByteBudgetLRU,
        key: Tuple,
        tier_name: str,
        factory: Callable[[], Any],
        size_of: Callable[[Any], int],
        disk_key: Optional[Tuple] = None,
    ) -> Any:
        """Tier lookup with single-flight miss deduplication.

        With *disk_key* set, the in-process flight leader additionally
        holds the store's cross-process bundle lock while it probes
        disk and (on a cluster-wide miss) cooks and persists — so N
        workers missing the same key still run the pipeline exactly
        once between them, and the others load the winner's bundle.
        """
        value = tier.get(key)
        if value is not MISS:
            self._count_hit(tier_name)
            return value
        flight_key = (tier.name, key)
        while True:
            with self._lock:
                value = tier.get(key)
                if value is not MISS:
                    leader = None
                    flight = None
                else:
                    flight = self._flights.get(flight_key)
                    if flight is None:
                        flight = _Flight()
                        self._flights[flight_key] = flight
                        leader = True
                    else:
                        leader = False
            if flight is None:
                self._count_hit(tier_name)
                return value
            if not leader:
                # Share the in-progress computation: block until the
                # leader resolves the flight, then use its outcome.
                flight.event.wait()
                if flight.error is not None:
                    raise flight.error
                self.stats["inflight_waits"] += 1
                self._count_hit(tier_name)
                return flight.value
            break
        # Leader: probe the disk tier, run the build if it too misses,
        # publish the result, settle followers.
        try:
            if disk_key is not None and self._disk is not None:
                value = self._fetch_via_disk(disk_key, tier_name, factory)
            else:
                self._count_miss(tier_name)
                value = self._build_metered(tier_name, factory)
            evicted = tier.put(key, value, size_of(value))
            if evicted:
                self.stats["evictions"] += len(evicted)
                if OBS.enabled:
                    OBS.metrics.counter(
                        "prep.evictions", "cache entries evicted by the byte budget"
                    ).labels(tier=tier_name).inc(len(evicted))
            self._update_size_gauges()
            flight.value = value
            return value
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                self._flights.pop(flight_key, None)
            flight.event.set()

    def _fetch_via_disk(
        self, disk_key: Tuple, tier_name: str, factory: Callable[[], Any]
    ) -> Any:
        """Leader path through the persistent tier.

        Holds the store's cross-process bundle lock over probe → cook
        → persist, so concurrent workers cook each bundle exactly once
        cluster-wide.  A verified bundle on disk is a *hit* for the
        in-memory tier's contract: no pipeline ran, no miss counted.
        """
        assert self._disk is not None
        with self._disk.lock(disk_key):
            with timed("prep.disk_probe"):
                value = self._disk.get(disk_key)
            if value is not None:
                self.stats["disk_hits"] += 1
                self._count_hit(tier_name)
                if OBS.enabled:
                    OBS.metrics.counter(
                        "prep.hits", "preparation cache hits"
                    ).labels(tier="disk").inc()
                return value
            self.stats["disk_misses"] += 1
            self._count_miss(tier_name)
            if OBS.enabled:
                OBS.metrics.counter(
                    "prep.misses", "preparation cache misses"
                ).labels(tier="disk").inc()
            value = self._build_metered(tier_name, factory)
            try:
                with timed("prep.disk_persist"):
                    self._disk.put(disk_key, value)
                self.stats["disk_writes"] += 1
            except OSError:
                # A full or read-only disk degrades the tier, never
                # the request: the cooked result is still served.
                self.stats["disk_errors"] += 1
            return value

    def _count_miss(self, tier_name: str) -> None:
        self.stats[f"{tier_name}_misses"] += 1
        if OBS.enabled:
            OBS.metrics.counter(
                "prep.misses", "preparation cache misses"
            ).labels(tier=tier_name).inc()

    def _build_metered(self, tier_name: str, factory: Callable[[], Any]) -> Any:
        if OBS.enabled:
            OBS.metrics.gauge(
                "prep.inflight", "preparation builds in flight"
            ).inc()
        try:
            with timed(f"prep.{tier_name}_build"):
                return factory()
        finally:
            if OBS.enabled:
                OBS.metrics.gauge("prep.inflight").dec()

    def _count_hit(self, tier_name: str) -> None:
        self.stats[f"{tier_name}_hits"] += 1
        if OBS.enabled:
            OBS.metrics.counter(
                "prep.hits", "preparation cache hits"
            ).labels(tier=tier_name).inc()

    def _update_size_gauges(self) -> None:
        if OBS.enabled:
            OBS.metrics.gauge(
                "prep.sc_bytes", "bytes held by the SC cache tier"
            ).set(self._sc_tier.bytes)
            OBS.metrics.gauge(
                "prep.cooked_bytes", "bytes held by the cooked cache tier"
            ).set(self._cooked_tier.bytes)

    def _compact_sc(self, record: _SourceRecord) -> CompactSC:
        key = (record.digest, self._pipeline_token())
        return self._fetch(
            self._sc_tier, key, "sc", lambda: self._build_sc(record), _sc_size
        )

    def _pipeline_token(self) -> Tuple:
        token = getattr(self._pipeline, "cache_token", None)
        if callable(token):
            return token()
        return (type(self._pipeline).__qualname__,)

    def _build_sc(self, record: _SourceRecord) -> CompactSC:
        with timed("prep.parse"):
            if record.html:
                from repro.htmlkit.extract import html_to_research_paper

                document = html_to_research_paper(record.source)
            else:
                document = parse_xml(record.source)
        return self._pipeline.run(document).compact()

    def _build_cooked(
        self, record: _SourceRecord, request: PrepRequest
    ) -> PreparedDocument:
        sc = self._compact_sc(record)
        packetizer = Packetizer(
            packet_size=request.packet_size,
            redundancy_ratio=request.gamma,
            systematic=request.systematic,
        )
        if sc.payload_size:
            # Refuses a packet size that needs more packets than the
            # code has symbols, before any scoring or encoding.
            packetizer.raw_packet_count(sc.payload_size)
        # The cached SC is read-only: the measure's values and the
        # ranking are this cook's own, so cooks need no lock.
        with timed("prep.annotate"):
            query: Optional[Query] = None
            if request.query.strip():
                extractor = KeywordExtractor(
                    lemmatizer=self._pipeline.shared_lemmatizer
                )
                query = Query(request.query, extractor=extractor)
            measure = request.resolved_measure
            if measure in ("qic", "mqic") and (query is None or query.is_empty):
                if request.measure != "auto":
                    raise ValueError(
                        f"measure {measure!r} needs a query with "
                        f"keywords, got {request.query!r}"
                    )
                # A query of pure stop words carries no keywords;
                # "auto" degrades to the static measure (matching
                # the pre-service CLI behaviour).
                measure = "ic"
            schedule = sc.schedule(
                request.lod_level, serve_measure(sc.table, measure, query)
            )
        return DocumentSender(packetizer).prepare(record.document_id, schedule)

    @staticmethod
    def _with_id(
        prepared: PreparedDocument, document_id: str
    ) -> PreparedDocument:
        """Re-label a digest-shared entry for an aliased document id."""
        if prepared.document_id == document_id:
            return prepared
        alias = PreparedDocument(
            document_id,
            prepared.cooked,
            prepared.content_profile,
            measure=prepared.measure,
            segments=prepared.segments,
        )
        return alias

    # -- introspection -----------------------------------------------------

    def hot_documents(self, limit: Optional[int] = None) -> List[Tuple[str, int]]:
        """Registered documents by demand, hottest first.

        Demand is the per-document ``prepare`` count (cache hits and
        misses alike — what matters is how often readers ask).  Ties
        break by document id for determinism.  Documents never prepared
        rank last with zero demand.
        """
        with self._lock:
            hits = dict(self.document_hits)
            ids = sorted(self._records)
        ranked = sorted(ids, key=lambda doc: (-hits.get(doc, 0), doc))
        if limit is not None:
            ranked = ranked[:limit]
        return [(doc, hits.get(doc, 0)) for doc in ranked]

    def cache_info(self) -> Dict[str, Any]:
        """Snapshot of both tiers plus the flight and stat counters."""
        with self._lock:
            inflight = len(self._flights)
        info = {
            "sc": self._sc_tier.info(),
            "cooked": self._cooked_tier.info(),
            "inflight": inflight,
            "stats": dict(self.stats),
        }
        if self._disk is not None:
            info["disk"] = self._disk.info()
        return info
