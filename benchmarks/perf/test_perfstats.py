"""Percentile selection, seeded input plans and compare verdicts."""

import random
from pathlib import Path

import pytest

import perfstats
from workloads import corpus_plan


def test_highest_percentile_keeps_ten_samples_beyond_it():
    assert perfstats.highest_percentile(10_000) == 99.9
    assert perfstats.highest_percentile(1000) == 99.0
    assert perfstats.highest_percentile(999) == 95.0
    assert perfstats.highest_percentile(200) == 95.0
    assert perfstats.highest_percentile(199) == 90.0
    assert perfstats.highest_percentile(20) == 50.0
    assert perfstats.highest_percentile(19) is None


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert perfstats.percentile(values, 0) == 1.0
    assert perfstats.percentile(values, 50) == 2.5
    assert perfstats.percentile(values, 100) == 4.0
    with pytest.raises(ValueError):
        perfstats.percentile([], 50)


def test_poisson_schedule_is_seeded_and_fixes_each_segment_count():
    first = perfstats.poisson_schedule(50.0, (3.0, 10.0), seed=7)
    assert first == perfstats.poisson_schedule(50.0, (3.0, 10.0), seed=7)
    assert first != perfstats.poisson_schedule(50.0, (3.0, 10.0), seed=8)
    warmup = [t for t in first if t < 3.0]
    window = [t for t in first if t >= 3.0]
    assert len(warmup) == 150 and len(window) == 500
    assert warmup == sorted(warmup) and window == sorted(window)
    assert 0.0 <= first[0] and first[-1] < 13.0


def test_zipf_draws_favour_low_ranks():
    draws = perfstats.zipf_draws(200, 1.0, 5000, random.Random(3))
    assert all(0 <= rank < 200 for rank in draws)
    assert draws.count(0) > draws.count(1) > draws.count(50)


def test_corpus_plan_is_deterministic_for_a_seed():
    from repro.prep import PrepRequest

    paths = [Path(f"doc-{i:03d}.xml") for i in range(200)]
    topics = [f"topic{t} words" for t in range(8)]
    offsets = perfstats.poisson_schedule(60.0, (3.0, 10.0), seed=5)

    def plan(seed):
        return corpus_plan(seed, offsets, paths, topics, PrepRequest())

    assert plan(5) == plan(5)
    assert plan(5) != plan(6)
    queried = sum(1 for r in plan(5) if r.prep.query)
    assert 0.4 < queried / len(offsets) < 0.6
    assert {r.prep.query for r in plan(5)} <= set(topics) | {""}


def test_verdict_same_within_bound():
    v = perfstats.verdict([10.0, 10.2, 9.9], [10.3, 10.1, 10.4], better="lower", bound=0.1)
    assert v["verdict"] == "same"
    assert v["worse_by"] == pytest.approx(0.3 / 10.0)


def test_verdict_worse_beyond_bound():
    v = perfstats.verdict([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], better="lower", bound=0.1)
    assert v["verdict"] == "worse"
    # Higher-is-better metrics flip the sign.
    v = perfstats.verdict([100.0, 101.0, 99.0], [80.0, 81.0, 79.0], better="higher", bound=0.1)
    assert v["verdict"] == "worse"


def test_verdict_unresolved_when_spread_exceeds_bound():
    v = perfstats.verdict([10.0, 14.0, 8.0, 12.0], [11.0, 9.0, 13.0, 10.0], better="lower", bound=0.1)
    assert v["verdict"] == "unresolved"
    # ...unless every run of the change beats every run of the parent.
    v = perfstats.verdict([10.0, 14.0, 12.0], [5.0, 7.0, 6.0], better="lower", bound=0.1)
    assert v["verdict"] == "better"


def test_verdict_claims_better_only_with_ten_pairs_won():
    parent = [10.0 + 0.01 * i for i in range(10)]
    change = [9.0 + 0.01 * i for i in range(10)]
    assert perfstats.verdict(parent, change, better="lower", bound=0.2)["verdict"] == "better"
    assert perfstats.verdict(parent[:9], change[:9], better="lower", bound=0.2)["verdict"] == "same"


def test_error_verdict_has_an_absolute_zero_bound():
    assert perfstats.error_verdict((0, 100), (0, 120)) == "same"
    assert perfstats.error_verdict((0, 100), (1, 120)) == "worse"
    assert perfstats.error_verdict((2, 100), (1, 100)) == "same"
