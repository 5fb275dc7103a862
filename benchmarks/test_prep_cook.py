"""Cook front-end cost: parse, SC pipeline, IC annotation, profile, encode.

Times ``PreparationService.warmup()`` over 50 seeded corpus documents
(every stage of a cold cook) and then one pass of topic-query cooks
over the same documents, which reuse the cached SC and pay only
annotation, scheduling, the content profile and encoding.  Each round
starts from a fresh service.  The median of the rounds is written to
``benchmarks/results/prep_cook.txt`` with the host it ran on.

One more fresh round runs under ``tracemalloc`` and records the bytes
the service still holds per document after both passes (both cache
tiers and the shared lemmatizer); the test fails above a fixed
ceiling, so per-cook scratch left on the cached SCs cannot creep back.
"""

import gc
import os
import platform
import statistics
import time
import tracemalloc

import pytest

from conftest import emit

from repro.prep import PrepRequest, PreparationService
from repro.simulation.textgen import CorpusGenerator

DOCUMENTS = 50
ROUNDS = 5
#: Traced bytes per document the service may keep after both passes.
#: With annotation left on the cached SCs it kept ~169 KiB per document;
#: with annotation released after every cook, ~96 KiB (Python 3.11.7).
RETAINED_CEILING_BYTES = 128 * 1024


def _corpus():
    generator = CorpusGenerator(seed=1)
    return [
        (name, xml, generator.topic_query(topic))
        for name, (xml, topic) in generator.corpus(DOCUMENTS).items()
    ]


def _fresh_service(corpus):
    service = PreparationService()
    for name, xml, _query in corpus:
        service.add_document(name, xml)
    return service


def _query_pass(service, corpus):
    return [
        service.prepare(name, PrepRequest(query=query)) for name, _xml, query in corpus
    ]


def _cook_round(corpus):
    """(warmup seconds, query-pass seconds) for one fresh service."""
    service = _fresh_service(corpus)
    start = time.perf_counter()
    assert service.warmup() == len(corpus)
    warmup = time.perf_counter() - start
    start = time.perf_counter()
    cooked = _query_pass(service, corpus)
    query_pass = time.perf_counter() - start
    assert service.stats["cooked_misses"] == 2 * len(corpus)
    for prepared in cooked:
        assert len(prepared.content_profile) == prepared.m
        assert sum(prepared.content_profile) == pytest.approx(1.0)
    return warmup, query_pass


def _retained_per_document(corpus):
    """Traced bytes a fresh service keeps per document after both passes."""
    service = _fresh_service(corpus)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        service.warmup()
        _query_pass(service, corpus)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained // len(corpus)


def test_prep_cook(benchmark):
    corpus = _corpus()
    rounds = benchmark.pedantic(
        lambda: [_cook_round(corpus) for _ in range(ROUNDS)], rounds=1, iterations=1
    )
    warmup = statistics.median(seconds for seconds, _ in rounds)
    query_pass = statistics.median(seconds for _, seconds in rounds)
    retained = _retained_per_document(corpus)
    emit(
        "prep_cook",
        "\n".join(
            [
                f"host {os.cpu_count()} cpu, python {platform.python_version()}",
                f"documents {DOCUMENTS}, rounds {ROUNDS} (median)",
                f"warmup_seconds {warmup:.6f}",
                f"warmup_ms_per_cook {1000 * warmup / DOCUMENTS:.3f}",
                f"query_pass_seconds {query_pass:.6f}",
                f"query_ms_per_cook {1000 * query_pass / DOCUMENTS:.3f}",
                f"retained_bytes_per_document {retained}",
                f"retained_ceiling_bytes_per_document {RETAINED_CEILING_BYTES}",
            ]
        ),
    )
    assert retained <= RETAINED_CEILING_BYTES
