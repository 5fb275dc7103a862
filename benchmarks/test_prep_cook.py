"""Cook front-end cost: parse, SC pipeline, IC annotation, profile, encode.

Times ``PreparationService.warmup()`` over 50 seeded corpus documents
(every stage of a cold cook) and then one pass of topic-query cooks
over the same documents, which reuse the cached SC and pay only
annotation, scheduling, the content profile and encoding.  Each round
starts from a fresh service.  The median of the rounds is written to
``benchmarks/results/prep_cook.txt`` with the host it ran on.
"""

import os
import platform
import statistics
import time

import pytest

from conftest import emit

from repro.prep import PrepRequest, PreparationService
from repro.simulation.textgen import CorpusGenerator

DOCUMENTS = 50
ROUNDS = 5


def _corpus():
    generator = CorpusGenerator(seed=1)
    return [
        (name, xml, generator.topic_query(topic))
        for name, (xml, topic) in generator.corpus(DOCUMENTS).items()
    ]


def _cook_round(corpus):
    """(warmup seconds, query-pass seconds) for one fresh service."""
    service = PreparationService()
    for name, xml, _query in corpus:
        service.add_document(name, xml)
    start = time.perf_counter()
    assert service.warmup() == len(corpus)
    warmup = time.perf_counter() - start
    start = time.perf_counter()
    cooked = [
        service.prepare(name, PrepRequest(query=query)) for name, _xml, query in corpus
    ]
    query_pass = time.perf_counter() - start
    assert service.stats["cooked_misses"] == 2 * len(corpus)
    for prepared in cooked:
        assert len(prepared.content_profile) == prepared.m
        assert sum(prepared.content_profile) == pytest.approx(1.0)
    return warmup, query_pass


def test_prep_cook(benchmark):
    corpus = _corpus()
    rounds = benchmark.pedantic(
        lambda: [_cook_round(corpus) for _ in range(ROUNDS)], rounds=1, iterations=1
    )
    warmup = statistics.median(seconds for seconds, _ in rounds)
    query_pass = statistics.median(seconds for _, seconds in rounds)
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
            ]
        ),
    )
