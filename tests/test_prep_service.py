"""Cache semantics of the on-demand PreparationService.

Tier-1: single-flight dedup (threads *and* asyncio), byte-budget LRU
eviction, digest invalidation, byte-identical hit-vs-miss output, and
the per-request parameters all landing in the cooked-tier key.
"""

import asyncio
import hashlib
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.pipeline import SCPipeline
from repro.data import draft_paper_path
from repro.prep import PrepRequest, PreparationService, prepare
from repro.prep.cache import MISS, ByteBudgetLRU
from repro.prep.service import UnknownDocumentError, content_digest
from repro.simulation.textgen import CorpusGenerator

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
        assert service.stats["cooked_misses"] == 2

    def test_cooked_lru_eviction_and_rebuild(self):
        service, _ = make_service(cooked_budget_bytes=1)
        service.add_document("doc", PAPER)
        request = PrepRequest()
        first = service.prepare("doc", request)
        second = service.prepare("doc", request)
        assert second is not first
        assert second.frames() == first.frames()
        assert service.stats["evictions"] >= 2
        assert service.stats["cooked_hits"] == 0

    def test_unknown_document_raises(self):
        service, _ = make_service()
        with pytest.raises(UnknownDocumentError):
            service.prepare("nope")
        assert service.get("nope") is None


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
            return await asyncio.gather(
                *(service.prepare_async("doc") for _ in range(12))
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
