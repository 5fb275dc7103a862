"""Cache semantics of the on-demand PreparationService.

Tier-1: one build per key under the build lock (threads *and*
asyncio executors), builds one at a time, byte-budget LRU
eviction, digest invalidation, byte-identical hit-vs-miss output, and
the per-request parameters all landing in the cooked-tier key.
"""

import asyncio
import hashlib
import random
import string
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core.pipeline import SCPipeline
from repro.data import draft_paper_path
from repro.prep import PrepRequest, PreparationService, prepare
from repro.prep.cache import MISS, ByteBudgetLRU
from repro.prep.service import UnknownDocumentError, content_digest
from repro.simulation.textgen import CorpusGenerator
from repro.text.lemmatizer import Lemmatizer
from repro.xmlkit.errors import XmlSyntaxError
from repro.xmlkit.parser import parse_xml

PAPER = """<paper>
  <title>Service Cache Paper</title>
  <abstract><paragraph>Weakly connected browsing of mobile web documents.</paragraph></abstract>
  <section>
    <title>Coding</title>
    <paragraph>Redundancy coding protects wireless packets so the mobile
    client reconstructs the document despite corruption on the channel.</paragraph>
  </section>
  <section>
    <title>Caching</title>
    <paragraph>Caching intact packets across stalls makes repeated
    transmissions cheaper for weakly connected clients.</paragraph>
  </section>
</paper>"""

OTHER = PAPER.replace("Service Cache Paper", "A Different Paper")


class CountingPipeline(SCPipeline):
    """SCPipeline that counts how many times the five modules run."""

    def __init__(self):
        super().__init__()
        self.runs = 0
        self._count_lock = threading.Lock()

    def run(self, document):
        with self._count_lock:
            self.runs += 1
        return super().run(document)


def make_service(**kwargs):
    pipeline = CountingPipeline()
    service = PreparationService(pipeline=pipeline, **kwargs)
    return service, pipeline


class TestByteBudgetLRU:
    def test_put_get_and_eviction_order(self):
        cache = ByteBudgetLRU(budget_bytes=100)
        cache.put("a", 1, 40)
        cache.put("b", 2, 40)
        assert cache.get("a") == 1          # refresh a
        evicted = cache.put("c", 3, 40)     # over budget: b is LRU
        assert evicted == ["b"]
        assert cache.get("b") is MISS
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_oversized_entry_never_sticks(self):
        cache = ByteBudgetLRU(budget_bytes=10)
        evicted = cache.put("huge", "x", 1000)
        assert "huge" in evicted
        assert cache.get("huge") is MISS
        assert cache.bytes == 0

    def test_discard_where(self):
        cache = ByteBudgetLRU(budget_bytes=100)
        cache.put(("d1", "k1"), 1, 10)
        cache.put(("d1", "k2"), 2, 10)
        cache.put(("d2", "k1"), 3, 10)
        dropped = cache.discard_where(lambda key: key[0] == "d1")
        assert dropped == 2
        assert cache.get(("d2", "k1")) == 3


class TestCacheTiers:
    def test_cooked_hit_is_byte_identical_to_miss(self):
        service, pipeline = make_service()
        service.add_document("doc", PAPER)
        request = PrepRequest(query="mobile web")
        cold = service.prepare("doc", request)
        warm = service.prepare("doc", request)
        assert warm is cold
        assert service.stats["cooked_misses"] == 1
        assert service.stats["cooked_hits"] == 1
        # After eviction the rebuild is byte-identical.
        service._cooked_tier.clear()
        rebuilt = service.prepare("doc", request)
        assert rebuilt is not cold
        assert rebuilt.frames() == cold.frames()
        assert rebuilt.content_profile == cold.content_profile

    def test_sc_tier_shared_across_requests(self):
        service, pipeline = make_service()
        service.add_document("doc", PAPER)
        service.prepare("doc", PrepRequest(query="mobile"))
        service.prepare("doc", PrepRequest(query="caching packets"))
        service.prepare("doc", PrepRequest(lod="section"))
        assert pipeline.runs == 1
        assert service.stats["sc_misses"] == 1
        assert service.stats["cooked_misses"] == 3

    @pytest.mark.parametrize("change", [
        {"lod": "section"},
        {"query": "different words"},
        {"gamma": 2.0},
        {"packet_size": 128},
        {"measure": "proportional"},
    ])
    def test_each_parameter_lands_in_the_key(self, change):
        service, _ = make_service()
        service.add_document("doc", PAPER)
        base = PrepRequest(query="mobile web")
        service.prepare("doc", base)
        service.prepare("doc", base.replace(**change))
        # Neither "different" nor "words" is in PAPER, so that MQIC
        # request ranks like the static IC and shares the static cook:
        # its own key misses, and so does the static key it is served
        # from.  Every other change is one new cook.
        misses = 3 if change == {"query": "different words"} else 2
        assert service.stats["cooked_misses"] == misses

    def test_cooked_lru_eviction_and_rebuild(self):
        service, _ = make_service(cooked_budget_bytes=1)
        service.add_document("doc", PAPER)
        request = PrepRequest()
        first = service.prepare("doc", request)
        second = service.prepare("doc", request)
        assert second is not first
        assert second.frames() == first.frames()
        assert service.cache_info()["cooked"]["evictions"] >= 2
        assert service.stats["cooked_hits"] == 0

    def test_unknown_document_raises(self):
        service, _ = make_service()
        with pytest.raises(UnknownDocumentError):
            service.prepare("nope")
        # The net-server store contract: UnknownDocumentError is the
        # KeyError the server answers with "unknown document".
        with pytest.raises(UnknownDocumentError):
            service.prepare("nope", None)
        assert issubclass(UnknownDocumentError, KeyError)


class TestInvalidation:
    def test_add_document_with_new_content_invalidates(self):
        service, pipeline = make_service()
        service.add_document("doc", PAPER)
        first = service.prepare("doc")
        service.add_document("doc", OTHER)
        second = service.prepare("doc")
        assert second is not first
        assert pipeline.runs == 2
        assert second.frames() != first.frames()  # new content, new bytes

    def test_same_content_is_idempotent(self):
        service, pipeline = make_service()
        service.add_document("doc", PAPER)
        first = service.prepare("doc")
        service.add_document("doc", PAPER)  # unchanged digest
        assert service.prepare("doc") is first
        assert pipeline.runs == 1

    def test_path_invalidation_on_file_change(self, tmp_path):
        target = tmp_path / "paper.xml"
        target.write_text(PAPER, encoding="utf-8")
        service, pipeline = make_service()
        document_id = service.add_path(target)
        assert document_id == "paper"
        old_digest = service.digest(document_id)
        service.prepare(document_id)
        target.write_text(OTHER, encoding="utf-8")
        dropped = service.invalidate(document_id)
        assert dropped >= 1  # both tiers held entries for the old digest
        assert service.digest(document_id) != old_digest
        service.prepare(document_id)
        assert pipeline.runs == 2

    def test_invalidate_in_memory_document_drops_its_tiers(self):
        service, pipeline = make_service()
        service.add_document("doc", PAPER)
        service.prepare("doc")
        assert service.invalidate("doc") > 0
        before = dict(service.stats)
        service.prepare("doc")
        assert service.stats["sc_misses"] == before["sc_misses"] + 1
        assert service.stats["cooked_misses"] == before["cooked_misses"] + 1
        assert pipeline.runs == 2

    def test_remove_keeps_entries_of_a_document_with_the_same_content(self):
        service, pipeline = make_service()
        service.add_document("doc", PAPER)
        service.add_document("twin", PAPER)
        service.prepare("doc")
        service.remove("doc")
        before = dict(service.stats)
        service.prepare("twin")
        assert service.stats["cooked_hits"] == before["cooked_hits"] + 1
        assert pipeline.runs == 1

    def test_remove(self):
        service, _ = make_service()
        service.add_document("doc", PAPER)
        service.prepare("doc")
        service.remove("doc")
        assert "doc" not in service
        with pytest.raises(UnknownDocumentError):
            service.prepare("doc")


class TestSingleFlight:
    def test_threads_share_one_build(self):
        service, pipeline = make_service()
        service.add_document("doc", PAPER)
        barrier = threading.Barrier(16)

        def fetch():
            barrier.wait()
            return service.prepare("doc", PrepRequest(query="mobile"))

        with ThreadPoolExecutor(max_workers=16) as pool:
            results = list(pool.map(lambda _: fetch(), range(16)))

        assert pipeline.runs == 1
        assert service.stats["cooked_misses"] == 1
        assert all(result is results[0] for result in results)
        # Every follower is a cooked hit; a hit that had to block on
        # the leader's in-progress build is *additionally* counted as
        # an in-flight wait (how many wait is scheduling-dependent —
        # the coding kernel releases the GIL, so followers may run
        # mid-build).
        assert service.stats["cooked_hits"] == 15
        assert 0 <= service.stats["inflight_waits"] <= 15

    def test_asyncio_gather_shares_one_build(self):
        service, pipeline = make_service()
        service.add_document("doc", PAPER)

        async def go():
            loop = asyncio.get_running_loop()
            return await asyncio.gather(
                *(loop.run_in_executor(None, service.prepare, "doc") for _ in range(12))
            )

        results = asyncio.run(go())
        assert pipeline.runs == 1
        assert service.stats["cooked_misses"] == 1
        assert all(result is results[0] for result in results)

    def test_failed_build_does_not_poison(self):
        service, _ = make_service()
        service.add_document("doc", PAPER)
        bad = PrepRequest(measure="qic")  # qic needs a query
        with pytest.raises(ValueError):
            service.prepare("doc", bad)
        with pytest.raises(ValueError):
            service.prepare("doc", bad)  # still raises, not a cached poison
        assert service.prepare("doc", PrepRequest(query="mobile")).document_id == "doc"


class PeakPipeline(CountingPipeline):
    """CountingPipeline that records the most ``run`` calls at once, and
    can hold a run open until :attr:`release` is set."""

    def __init__(self, hold=False):
        super().__init__()
        self.active = 0
        self.peak = 0
        self.hold = hold
        self.entered = threading.Event()
        self.release = threading.Event()

    def run(self, document):
        with self._count_lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            if self.hold:
                self.entered.set()
                assert self.release.wait(10.0)
            else:
                time.sleep(0.02)  # long enough for another run to overlap
            return super().run(document)
        finally:
            with self._count_lock:
                self.active -= 1


class TestBuildLock:
    def test_distinct_misses_build_one_at_a_time(self):
        pipeline = PeakPipeline()
        service = PreparationService(pipeline=pipeline)
        for index in range(8):
            service.add_document(f"doc{index}", PAPER.replace("Service Cache", f"Paper {index}"))
        barrier = threading.Barrier(8)

        def fetch(index):
            barrier.wait()
            return service.prepare(f"doc{index}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often: more chances to overlap
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(fetch, range(8), timeout=60.0))
        finally:
            sys.setswitchinterval(interval)

        assert [result.document_id for result in results] == [f"doc{i}" for i in range(8)]
        assert pipeline.runs == 8
        assert pipeline.peak == 1
        assert service.stats["cooked_misses"] == 8

    def test_hit_does_not_wait_behind_a_build(self):
        pipeline = PeakPipeline()
        service = PreparationService(pipeline=pipeline)
        service.add_document("hot", PAPER)
        service.add_document("cold", OTHER)
        cached = service.prepare("hot")
        pipeline.hold = True
        with ThreadPoolExecutor(max_workers=1) as pool:
            cold = pool.submit(service.prepare, "cold")
            assert pipeline.entered.wait(10.0)
            try:
                assert service.prepare("hot") is cached
                assert not cold.done()  # the build is still held open
            finally:
                pipeline.release.set()
            assert cold.result(10.0).document_id == "cold"
        assert service.stats["cooked_hits"] == 1

    def test_concurrent_failing_builds_each_raise(self):
        service, pipeline = make_service()
        service.add_document("doc", PAPER)
        bad = PrepRequest(measure="qic")  # qic needs a query
        barrier = threading.Barrier(4)

        def fetch(_):
            barrier.wait()
            with pytest.raises(ValueError, match="needs a query"):
                service.prepare("doc", bad)

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(fetch, range(4)))

        # No error is handed on: each request ran its own failing build.
        assert service.stats["cooked_misses"] == 4
        assert service.prepare("doc", PrepRequest(query="mobile")).document_id == "doc"
        assert pipeline.runs == 1  # the SC built once, for every cook


class TestServiceConveniences:
    def test_warmup_counts_builds(self):
        service, pipeline = make_service()
        service.add_document("a", PAPER)
        service.add_document("b", OTHER)
        count = service.warmup()
        assert count == 2
        assert pipeline.runs == 2
        service.prepare("a")
        assert pipeline.runs == 2  # warm

    def test_content_digest_distinguishes_markup_kind(self):
        assert content_digest("<a/>", html=False) != content_digest("<a/>", html=True)

    def test_one_shot_prepare_facade(self, tmp_path):
        target = tmp_path / "facade.xml"
        target.write_text(PAPER, encoding="utf-8")
        by_path = prepare(target, query="mobile")
        assert by_path.document_id == "facade"
        inline = prepare(PAPER, query="mobile")
        assert inline.document_id.startswith("inline-")
        with pytest.raises(TypeError):
            prepare(PAPER, request=PrepRequest(), query="conflict")

    def test_cache_info(self):
        service, _ = make_service()
        service.add_document("doc", PAPER)
        service.prepare("doc")
        info = service.cache_info()
        assert info["cooked"]["entries"] == 1
        assert info["sc"]["entries"] == 1
        assert info["cooked"]["bytes"] > 0


class TestCharacterReferences:
    """A reference outside XML ``Char`` fails a cook as a syntax error."""

    REFERENCES = pytest.mark.parametrize(
        "reference",
        ["&#99999999999;", "&#x110000;", "&#" + "9" * 5000 + ";", "&#xD800;", "&#0;"],
        ids=["overflow", "past-max", "5000-digits", "surrogate", "nul"],
    )

    @REFERENCES
    def test_xml_cook_raises_syntax_error(self, reference):
        service = PreparationService()
        service.add_document("doc", PAPER.replace("Redundancy coding", f"Redundancy {reference}"))
        with pytest.raises(XmlSyntaxError, match="not an XML character"):
            service.prepare("doc", PrepRequest())

    @REFERENCES
    def test_html_cook_keeps_the_reference_as_text(self, reference):
        service = PreparationService()
        html = (
            "<html><head><title>T</title></head><body><h1>Coding</h1>"
            f"<p>Redundancy {reference} coding protects packets.</p></body></html>"
        )
        service.add_document("doc", html, html=True)
        cooked = service.prepare("doc", PrepRequest()).cooked
        payload = cooked.reassemble({index: cooked.cooked[index] for index in range(cooked.m)})
        assert reference.encode() in payload


class TestQueryWordsLeaveTheMemo:
    """Client query words read the shared lemmatizer's memo, never grow it."""

    def test_random_queries_leave_the_memo_alone(self):
        pipeline = SCPipeline()
        service = PreparationService(pipeline=pipeline)
        document = service.add_path(draft_paper_path())
        service.prepare(document, PrepRequest())
        memo = pipeline.shared_lemmatizer._cache
        entries = len(memo)
        rng = random.Random(11)
        for _ in range(50):
            words = [
                "".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 12)))
                for _ in range(1000)
            ]
            service.prepare(document, PrepRequest(query=" ".join(words)))
            assert len(memo) == entries

    def test_query_lemmas_match_a_memoizing_lemmatizer(self):
        pipeline = SCPipeline()
        service = PreparationService(pipeline=pipeline)
        service.prepare(service.add_path(draft_paper_path()), PrepRequest())
        rng = random.Random(12)
        words = [
            "".join(rng.choices(string.ascii_letters, k=rng.randint(1, 12)))
            for _ in range(2000)
        ]
        words += list(pipeline.shared_lemmatizer._cache)[:500]
        reader = pipeline.shared_lemmatizer.reader()
        assert reader.lemmatize(words) == Lemmatizer().lemmatize(words)


class TestWireBytesPinned:
    """The framed cooked packets of the bundled paper, byte for byte.

    Digests were recorded before the systematic generator moved to its
    closed (Lagrange) form, whose output must not differ.  A change
    here changes every frame on the wire.
    """

    @pytest.mark.parametrize(
        "packet_size, m, n, digest",
        [
            (64, 130, 195, "dcf7e5f87f21a40a370a44b15326fdb022a7b4c2bda3af3e668ebe7efa2aedb2"),
            (256, 33, 50, "80e02931ab759ee9f403c0d084491ab6102484abcd720f561731da065697f529"),
        ],
    )
    def test_paper_frames(self, packet_size, m, n, digest):
        service = PreparationService()
        document = service.add_path(draft_paper_path())
        cooked = service.prepare(document, PrepRequest(packet_size=packet_size)).cooked
        assert (cooked.m, cooked.n) == (m, n)
        assert hashlib.sha256(b"".join(cooked.frames())).hexdigest() == digest


class TestCorpusCookPinned:
    """Cooked output of seeded corpus documents, bit for bit.

    One digest covers the frames, every content-profile float (as
    ``float.hex``) and the scheduled segments of 20 ``CorpusGenerator``
    documents, each cooked with and without its topic query.  It was
    recorded before the content profile moved to a single pass over
    the segments, which must not change a bit of the output.
    """

    DIGEST = "3dd636e4ee81aa5b79de9da26cf2d2bd71c351d5d5f9cacc700012eae95afa42"

    def test_corpus_cooks(self):
        generator = CorpusGenerator(seed=1)
        service = PreparationService()
        digest = hashlib.sha256()
        for name, (xml, topic) in generator.corpus(20).items():
            service.add_document(name, xml)
            for query in (None, generator.topic_query(topic)):
                prepared = service.prepare(name, PrepRequest(query=query))
                digest.update(b"".join(prepared.frames()))
                digest.update(
                    " ".join(share.hex() for share in prepared.content_profile).encode()
                )
                for label, size, content in prepared.segments:
                    digest.update(f"{label}:{size}:{content.hex()};".encode())
        assert digest.hexdigest() == self.DIGEST


class TestCompactSCPinned:
    """Every field of the compact SC, bit for bit.

    One digest covers every :class:`~repro.core.compact.CompactSC`
    buffer (with its array typecode), the label, title and keyword
    strings, the table's counts and ``float.hex`` weights, of the
    bundled paper and 20 ``CorpusGenerator`` documents.  The cook pins
    cover only the default and topic measures; this covers the input of
    every measure.  It was recorded before the SC build was sped up,
    which must not change a bit of it.
    """

    DIGEST = "31655177058a2779728d7a385f0d1f8317e938192d79dbf4569300600f9f0f89"

    @staticmethod
    def fields(compact):
        table = compact.table
        yield compact.lods
        yield compact.virtual
        yield compact.payload
        for text in (compact.labels, compact.titles, table.keywords):
            yield "\x00".join(text).encode()
        yield " ".join(weight.hex() for weight in table.weights).encode()
        for buffer in (
            compact.ends,
            compact.offsets,
            table.counts,
            compact.own,
            compact.own_starts,
            compact.aggregate,
            compact.aggregate_starts,
        ):
            yield buffer.typecode.encode() + buffer.tobytes()

    def test_compact_fields(self):
        pipeline = SCPipeline()
        sources = [Path(draft_paper_path()).read_text(encoding="utf-8")]
        sources += [xml for xml, _topic in CorpusGenerator(seed=1).corpus(20).values()]
        digest = hashlib.sha256()
        for source in sources:
            compact = pipeline.run(parse_xml(source)).compact()
            for field in self.fields(compact):
                digest.update(len(field).to_bytes(8, "big"))
                digest.update(field)
        assert digest.hexdigest() == self.DIGEST


class TestQueryCookPinned:
    """Every measure's query cooks, bit for bit.

    One digest covers the envelope arena, the packed content profile,
    its wire form, the scheduled segments and the ranking measure of
    the bundled paper and 20 ``CorpusGenerator`` documents, each cooked
    with no query, every topic query and one query whose words no
    document holds, under ``auto``, ``mqic``, ``qic`` and ``ic``.  A
    request the cook refuses (a query measure without a query) adds a
    fixed marker.  Topic words of one topic never occur in another
    topic's documents, so most of these MQIC cooks rank like the static
    IC.  It was recorded before such cooks were shared with the static
    cook, which must not change a bit of any of them.
    """

    DIGEST = "d9196aaecea9ea39a6e3204fad9eebd017f5b984b3f9dba5bf0474484377e3fa"
    MEASURES = ("auto", "mqic", "qic", "ic")
    OFF_VOCABULARY = "quokka zeppelin"

    @staticmethod
    def fields(prepared):
        yield bytes(prepared.cooked.arena)
        yield prepared.content_profile.tobytes()
        yield prepared.profile_wire.encode()
        for label, size, content in prepared.segments:
            yield f"{label}:{size}:{content.hex()}".encode()
        yield prepared.measure.encode()

    def test_query_cooks(self):
        generator = CorpusGenerator(seed=1)
        service = PreparationService()
        documents = [service.add_path(draft_paper_path())]
        for name, (xml, _topic) in generator.corpus(20).items():
            documents.append(name)
            service.add_document(name, xml)
        queries = ["", self.OFF_VOCABULARY]
        queries[1:1] = [generator.topic_query(topic) for topic in range(len(generator.topics))]
        digest = hashlib.sha256()
        for document in documents:
            for query in queries:
                for measure in self.MEASURES:
                    request = PrepRequest(measure=measure, query=query)
                    try:
                        prepared = service.prepare(document, request)
                    except ValueError:
                        assert not query and measure in ("qic", "mqic")
                        digest.update(b"refused")
                        continue
                    for field in self.fields(prepared):
                        digest.update(len(field).to_bytes(8, "big"))
                        digest.update(field)
        assert digest.hexdigest() == self.DIGEST
