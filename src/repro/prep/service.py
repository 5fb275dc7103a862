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
  frozen compact SC serves every request against the same bytes.  The
  tier holds each corpus-wide fact once: keyword tables hold ids into
  the pipeline's one :class:`~repro.core.compact.Vocabulary`, and equal
  labels, titles and structure buffers are one object;
* the **cooked tier**, keyed by the full canonical request tuple
  ``(digest, lod, measure, query_key, packet_size, gamma, systematic,
  delivery)``: byte-identical requests share one encode, and ``ic`` or
  ``proportional`` requests, which read no query, key an empty one.

Both tiers use byte-budget LRU eviction
(:class:`~repro.prep.cache.ByteBudgetLRU`).  Each distinct transmission
is cooked and held once: an MQIC request whose query shares no keyword
with the document ranks every unit exactly as the static IC does
(ω_a + λ·0), so its key aliases the static cook instead of encoding
the same bytes again.  The cook decides this on vocabulary ids, before
it builds any measure.

A hit reads its tier without a lock.  A miss takes the service's one
re-entrant build lock and reads the tier again, so concurrent misses
for one key run one build and the others share it.  Builds run one at
a time, as each :class:`~repro.net.server.NetServer` runs every
prepare on its own prep thread.  For in-process thread callers that
means: misses for distinct keys build one after another; N concurrent
requests whose build raises run N failing builds, each raising its own
error; and a waiter for an entry too large for its tier's budget builds
it again.

The always-on :attr:`PreparationService.stats` counters are the only
count of hits, misses, waits and shared cooks, and
:meth:`PreparationService.cache_info` reports each tier's entries,
bytes and evictions; with telemetry enabled the stages add
``prep.*.seconds`` timers.
"""

from __future__ import annotations

import copy
import sys
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.coding.packets import Packetizer
from repro.core.compact import CompactSC
# ``annotate_sc`` is not called here: ``benchmarks/perf/layers.py``
# wraps ``repro.prep.service.annotate_sc`` by name when it traces a
# server, so the name stays importable from this module.
from repro.core.information import annotate_sc, serve_measure  # noqa: F401
from repro.core.pipeline import SCPipeline
from repro.core.query import Query
from repro.core.structure import StructuralCharacteristic
from repro.obs.timing import timed
from repro.prep.cache import MISS, ByteBudgetLRU
from repro.prep.diskstore import DiskCookedStore
from repro.prep.prepare import DocumentSender, PreparedDocument
from repro.prep.request import PrepRequest
from repro.text.keywords import KeywordExtractor
from repro.util.nossl import sha256
from repro.util.validation import DocumentError
from repro.xmlkit.parser import parse_xml

#: Default byte budgets: generous for a document corpus, small enough
#: that a long-lived server cannot grow without bound.
DEFAULT_SC_BUDGET = 64 * 1024 * 1024
DEFAULT_COOKED_BUDGET = 256 * 1024 * 1024


class UnknownDocumentError(KeyError):
    """The requested document_id is not registered with the service."""


class _SourceRecord:
    """One registered document: source text, origin, content digest.

    A path-backed record holds its text only until the document's SC is
    built (``source`` is then None): the file is its copy, and
    :meth:`text` re-reads it for a later build.  A record made from a
    string keeps the text, its only copy.
    """

    __slots__ = ("document_id", "source", "html", "digest", "path")

    def __init__(
        self,
        document_id: str,
        source: str,
        html: bool,
        path: Optional[Path],
    ) -> None:
        self.document_id = document_id
        self.source: Optional[str] = source
        self.html = html
        self.path = path
        self.digest = content_digest(source, html=html)

    def text(self) -> str:
        """The source text, re-read from the file once it was dropped.

        Raises :class:`~repro.util.validation.DocumentError` when the
        file cannot be read or no longer hashes to :attr:`digest`: it
        changed on disk without :meth:`PreparationService.invalidate`.
        """
        source = self.source
        if source is not None:
            return source
        try:
            source = self.path.read_text(encoding="utf-8")
        except (OSError, UnicodeError) as exc:
            raise DocumentError(f"cannot re-read {self.path}: {exc}") from exc
        if content_digest(source, html=self.html) != self.digest:
            raise DocumentError(
                f"{self.path} changed on disk since it was registered"
            )
        return source


class _Shared:
    """A cook that another cooked-tier key owns: held in memory under
    both keys, persisted once (the disk tier keeps an alias record)."""

    __slots__ = ("prepared",)

    def __init__(self, prepared: PreparedDocument) -> None:
        self.prepared = prepared


#: Distinct structure records :class:`_StructureRecords` holds at most;
#: past it the table starts over, and records already shared stay shared.
_STRUCTURE_RECORDS = 1024


class _StructureRecords:
    """One held copy of each equal structure record across the SC tier.

    Documents of one corpus repeat their shape: the same labels, a few
    title tuples, the same LOD, virtual-flag and subtree-end buffers.
    :meth:`share` swaps each such field of a freshly built SC for an
    equal one already held, before the SC is published to the tier, so
    a reader sees the same values either way.
    """

    __slots__ = ("_held",)

    def __init__(self) -> None:
        self._held: Dict[Any, Any] = {}

    def share(self, sc: CompactSC) -> CompactSC:
        held = self._held
        if len(held) >= _STRUCTURE_RECORDS:
            held.clear()
        sc.lods = held.setdefault(sc.lods, sc.lods)
        sc.virtual = held.setdefault(sc.virtual, sc.virtual)
        sc.labels = held.setdefault(sc.labels, sc.labels)
        sc.titles = held.setdefault(sc.titles, sc.titles)
        ends = sc.ends  # an array: keyed by its typecode and bytes
        sc.ends = held.setdefault((ends.typecode, ends.tobytes()), ends)
        return sc


def content_digest(source: str, *, html: bool = False) -> str:
    """The cache digest of a document source (parse-mode aware)."""
    hasher = sha256(b"html\x00" if html else b"xml\x00")
    hasher.update(source.encode("utf-8"))
    return hasher.hexdigest()


#: Bytes an SC-tier entry holds besides its compact SC's buffers: the
#: ``CompactSC`` and ``KeywordTable`` objects, the tier key and its LRU
#: slot (``tracemalloc``, 64-bit CPython 3.11, fresh interpreter: a
#: corpus document cooked alone retains 1 113 B besides its buffers,
#: 288 B of which is the service's structure-record table taking its
#: first slots, once per service).
_SC_ENTRY_BYTES = 820


def _sc_size(sc: CompactSC) -> int:
    """Byte-budget weight of a cached SC: its exact buffer bytes (the
    unit text compressed, no derived field) plus one per-entry
    constant, checked against ``tracemalloc`` in
    ``tests/test_prep_sc_memory.py``.  Labels, titles and structure
    buffers count once per document, as a document cached alone holds
    them; documents that share them weigh more than they hold.
    """
    return sc.nbytes + _SC_ENTRY_BYTES


#: Bytes a cooked entry holds besides its arena, profile and
#: segments: the prepared and cooked document objects, the codec, the
#: arena's views, the headers of the packed profile and segment
#: columns, and the tier's LRU slot.
_COOKED_ENTRY_BYTES = 2700
#: Bytes per content-profile share (one packed binary64).
_PROFILE_ENTRY_BYTES = 8
#: Bytes per scheduled segment beyond its label's characters: its
#: packed size, content and label end.
_SEGMENT_BYTES = 16


def _cooked_size(prepared: PreparedDocument) -> int:
    """Byte-budget weight of a cached cooked document.

    The bytes the entry actually holds: its envelope arena (the one
    stored form of the cooked packets, frames and envelopes alike),
    the content-profile floats and their wire string, and the
    scheduled segments with their labels.  Sized with ``tracemalloc``
    like :func:`_sc_size` and checked in ``tests/test_prep_sc_memory.py``.
    """
    segments = prepared.segments or ()
    return (
        _COOKED_ENTRY_BYTES
        + prepared.wire_bytes
        + _PROFILE_ENTRY_BYTES * len(prepared.content_profile)
        + sys.getsizeof(prepared.profile_wire)
        + sum(_SEGMENT_BYTES + len(segment.label) for segment in segments)
    )


class PreparationService:
    """Lazy document preparation behind a shared two-tier cache.

    Satisfies the net-server store contract,
    ``prepare(document_id, request)``: a client that sends per-request
    FETCH parameters gets them, one that sends none gets the default
    request, and an unregistered id raises :class:`UnknownDocumentError`
    (a :class:`KeyError`).

    A document registered with :meth:`add_path` is held as its path
    and digest once its SC is built: the text is dropped then, and a
    later SC build (after eviction, or for :meth:`sc_for`) re-reads the
    file.  A file edited without :meth:`invalidate` no longer matches
    its digest, and that build raises
    :class:`~repro.util.validation.DocumentError` (over the wire,
    ``bad_document``).  :meth:`add_document` text is kept.

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
        self._structures = _StructureRecords()
        self._lock = threading.Lock()
        #: Held by every build, so builds run one at a time (see _fetch).
        self._build_lock = threading.RLock()
        #: Always-on counters, the service's only count of each fact.
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
            "shared_cooks": 0,
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

        The path is remembered so :meth:`invalidate` can re-read it,
        and so the text need not be held once the SC is built.
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
        elif record.path is not None:
            if self._sc_tier.peek(self._sc_key(record)) is not MISS:
                record.source = None  # the SC is built: the file holds the text
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
        in-memory documents simply lose their cached tiers.  This is
        how an edited file is reloaded: the service holds no copy of a
        path-backed text once its SC is built, and a rebuild that finds
        the file changed raises
        :class:`~repro.util.validation.DocumentError` instead.
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

        Cache hit, a wait on the build lock, or full build — always the
        same bytes for the same canonical request.  Raises
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
        prepared = self._cooked(record, request)
        if request.measure == "mqic" and prepared.measure != "mqic":
            # "auto" with a query of no keywords resolves to the same
            # key and ranks by "ic"; an explicit "mqic" refuses that query
            # whichever of the two was cooked first.
            raise ValueError(
                f"measure 'mqic' needs a query with keywords, got {request.query!r}"
            )
        return self._with_id(prepared, document_id)

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

    def _cooked(
        self, record: _SourceRecord, request: PrepRequest
    ) -> PreparedDocument:
        key = request.cache_key(record.digest)
        return self._fetch(
            self._cooked_tier,
            key,
            "cooked",
            lambda: self._cook(record, request, key),
            _cooked_size,
        )

    def _fetch(
        self,
        tier: ByteBudgetLRU,
        key: Tuple,
        tier_name: str,
        build: Callable[[], Any],
        size_of: Callable[[Any], int],
    ) -> Any:
        """Tier lookup; a miss builds under the service's build lock.

        A hit reads the tier without the lock, so it never waits behind
        a build.  A miss takes the lock and reads the tier again: an
        entry another thread published meanwhile is a hit that had to
        wait (``inflight_waits``); otherwise *build* runs, counting its
        own miss, and its value is published.  The lock is re-entrant:
        a cook fetches its SC, and a shared cook the static key, on the
        thread that holds it.
        """
        value = tier.get(key)
        if value is MISS:
            with self._build_lock:
                value = tier.get(key)
                if value is MISS:
                    value = build()
                    tier.put(key, value, size_of(value))
                    return value
                self.stats["inflight_waits"] += 1
        self.stats[f"{tier_name}_hits"] += 1
        return value

    def _cook(
        self, record: _SourceRecord, request: PrepRequest, key: Tuple
    ) -> PreparedDocument:
        """A cooked-tier miss: through the disk tier when there is one.

        The disk key additionally carries the pipeline token: bundle
        files outlive this process, so they must not be shared across
        differently-configured pipelines the way the per-instance
        memory tier safely can.
        """
        if self._disk is None:
            self.stats["cooked_misses"] += 1
            with timed("prep.cooked_build"):
                cooked = self._build_cooked(record, request)
        else:
            cooked = self._cook_via_disk(record, request, key + self._pipeline_token())
        return cooked.prepared if isinstance(cooked, _Shared) else cooked

    def _cook_via_disk(
        self, record: _SourceRecord, request: PrepRequest, disk_key: Tuple
    ) -> Union[PreparedDocument, _Shared]:
        """A cooked-tier miss through the persistent tier.

        Holds the store's cross-process bundle lock over probe → cook
        → persist, so N workers missing the same key run the pipeline
        exactly once between them, and the others load the winner's
        bundle.  A verified bundle on disk is a *hit* for the in-memory
        tier's contract: no pipeline ran, no miss counted.  So is an
        alias record, which a shared cook persists instead of a second
        bundle: it is served from the owning key without building the
        SC again.
        """
        with self._disk.lock(disk_key):
            aliased: Optional[str] = None
            with timed("prep.disk_probe"):
                value = self._disk.get(disk_key)
                if value is None:
                    aliased = self._disk.get_alias(disk_key)
            if value is not None or aliased is not None:
                self.stats["disk_hits"] += 1
                self.stats["cooked_hits"] += 1
                if aliased is None:
                    return value
                return self._share_static(record, request, aliased)
            self.stats["disk_misses"] += 1
            self.stats["cooked_misses"] += 1
            with timed("prep.cooked_build"):
                value = self._build_cooked(record, request)
            try:
                with timed("prep.disk_persist"):
                    if isinstance(value, _Shared):
                        # The owning key's bundle holds these bytes.
                        self._disk.put_alias(disk_key, value.prepared.measure)
                    else:
                        self._disk.put(disk_key, value)
                        self.stats["disk_writes"] += 1
            except OSError:
                # A full or read-only disk degrades the tier, never
                # the request: the cooked result is still served.
                self.stats["disk_errors"] += 1
                self._disk.discard_lock(disk_key)
            return value

    def _sc_key(self, record: _SourceRecord) -> Tuple:
        return (record.digest, self._pipeline_token())

    def _compact_sc(self, record: _SourceRecord) -> CompactSC:
        sc = self._fetch(
            self._sc_tier,
            self._sc_key(record),
            "sc",
            lambda: self._build_sc(record),
            _sc_size,
        )
        if record.path is not None:
            record.source = None  # the SC is built: the file holds the text
        return sc

    def _pipeline_token(self) -> Tuple:
        token = getattr(self._pipeline, "cache_token", None)
        if callable(token):
            return token()
        return (type(self._pipeline).__qualname__,)

    def _build_sc(self, record: _SourceRecord) -> CompactSC:
        self.stats["sc_misses"] += 1
        with timed("prep.sc_build"):
            source = record.text()
            with timed("prep.parse"):
                if record.html:
                    from repro.htmlkit.extract import html_to_research_paper

                    document = html_to_research_paper(source)
                else:
                    document = parse_xml(source)
            return self._structures.share(self._pipeline.run(document).compact())

    def _build_cooked(
        self, record: _SourceRecord, request: PrepRequest
    ) -> Union[PreparedDocument, _Shared]:
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
                # Query words come from clients: they read the pipeline's
                # lemma memo but do not grow it.
                extractor = KeywordExtractor(
                    lemmatizer=self._pipeline.shared_lemmatizer.reader()
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
            # Query words that no SC holds have no id, and looking
            # them up adds none.
            query_ids = sc.table.vocabulary.known(query.keywords() if query is not None else ())
            shares_static = request.resolved_measure == "mqic" and not sc.table.holds_any(
                query_ids
            )
            if not shares_static:
                ranking = serve_measure(sc.table, measure, query)
                schedule = sc.schedule(request.lod_level, ranking)
        if shares_static:
            # No query keyword is in the document: the static cook.
            return self._share_static(record, request, measure)
        return DocumentSender(packetizer).prepare(record.document_id, schedule)

    def _share_static(
        self, record: _SourceRecord, request: PrepRequest, measure: str
    ) -> _Shared:
        """The static cook, for an MQIC request that ranks like it.

        No query keyword is in the document, so every MQIC coefficient
        is ω_a + λ·0.0 and the schedule, profile and arena are the
        static IC's.  The static request goes through the cooked tier
        like any fetch (build lock, disk tier) while this request's
        build and bundle lock are held: the build lock is re-entrant,
        bundle locks are taken query key first, static key second, and
        a static cook never shares, so the order cannot invert.  The
        alias keeps this request's measure name, as ``_with_id`` keeps
        the requested id.
        """
        static = self._cooked(record, request.replace(measure="ic", query=""))
        self.stats["shared_cooks"] += 1
        if static.measure != measure:
            static = copy.copy(static)  # shares the arena, profile and segments
            static.measure = measure
        return _Shared(static)

    @staticmethod
    def _with_id(
        prepared: PreparedDocument, document_id: str
    ) -> PreparedDocument:
        """Re-label a digest-shared entry for an aliased document id."""
        if prepared.document_id == document_id:
            return prepared
        alias = copy.copy(prepared)  # shares the arena and the profile's wire form
        alias.document_id = document_id
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
        """Snapshot of each tier: entries, bytes and evictions (the
        counters are :attr:`stats`)."""
        info = {"sc": self._sc_tier.info(), "cooked": self._cooked_tier.info()}
        if self._disk is not None:
            info["disk"] = self._disk.info()
        return info
