"""Pure statistics for the serve benchmark: percentiles, input plans, verdicts.

Nothing here touches a socket, a process or the clock, so the tests in
this directory check it directly.  It deliberately does not import
:mod:`repro`: the benchmark's arithmetic must not change when the code
under test does.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentiles considered for the tail report, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)

#: A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10

#: Pairs a gain claim needs, and the share of them the change must win.
CLAIM_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def highest_percentile(count: int) -> Optional[float]:
    """The highest of :data:`TAIL_PERCENTILES` with ≥10 samples beyond it."""
    for q in TAIL_PERCENTILES:
        if count * (100.0 - q) / 100.0 >= TAIL_SAMPLES - 1e-9:  # 100 - 99.9 is inexact
            return q
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


# -- input plans ---------------------------------------------------------------


def poisson_schedule(rate: float, segments: Sequence[float], seed: int) -> List[float]:
    """Seeded Poisson arrival offsets (seconds) over consecutive *segments*.

    Each segment holds exactly ``round(rate × length)`` arrivals placed
    uniformly at random: a Poisson process conditioned on its count.
    Every seed thus offers the same load to the recorded window, and
    ``fetches_per_s`` does not inherit the ±1/√N noise of the count.
    """
    if rate <= 0 or any(length < 0 for length in segments):
        raise ValueError("rate must be positive and segments non-negative")
    rng = random.Random(seed)
    offsets: List[float] = []
    origin = 0.0
    for length in segments:
        count = round(rate * length)
        offsets.extend(sorted(origin + rng.random() * length for _ in range(count)))
        origin += length
    return offsets


def zipf_draws(population: int, exponent: float, count: int, rng: random.Random) -> List[int]:
    """*count* ranks in ``[0, population)`` with P(rank) ∝ 1/(rank+1)^exponent."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(population)]
    total = sum(weights)
    cumulative: List[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)
    cumulative[-1] = 1.0
    return [bisect.bisect_left(cumulative, rng.random()) for _ in range(count)]


# -- verdicts ------------------------------------------------------------------


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    *,
    better: str,
    bound: float,
) -> Dict[str, object]:
    """Judge one metric × workload pairing of two sets of runs.

    ``parent[i]`` and ``change[i]`` are the i-th runs of an alternating
    sequence of pairs.  The verdict is:

    * ``unresolved`` when either side's quartile spread exceeds *bound*,
      unless every run of one side beats every run of the other;
    * ``worse`` when the change's median is worse by more than *bound*
      (a share of the parent's median);
    * ``better`` only as a claim: at least :data:`CLAIM_PAIRS` pairs,
      the change winning :data:`CLAIM_WIN_SHARE` of them, and medians
      further apart than the parent's own quartile distance;
    * ``same`` otherwise.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if not parent or not change:
        raise ValueError("verdict needs runs on both sides")
    sign = 1.0 if better == "lower" else -1.0
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    if pmed:
        worse_by = sign * (cmed - pmed) / abs(pmed)
    else:
        worse_by = math.inf if sign * cmed > 0 else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) > 0 for c in change for p in parent)
    widest = max(spread(parent), spread(change))
    if widest > bound:
        outcome = "better" if all_better else "worse" if all_worse else "unresolved"
    elif worse_by > bound:
        outcome = "worse"
    elif (
        len(pairs) >= CLAIM_PAIRS
        and wins >= CLAIM_WIN_SHARE * len(pairs)
        and abs(cmed - pmed) > pq3 - pq1
    ):
        outcome = "better"
    else:
        outcome = "same"
    return {
        "verdict": outcome,
        "parent": {"median": pmed, "q1": pq1, "q3": pq3, "runs": len(parent)},
        "change": {"median": cmed, "q1": cq1, "q3": cq3, "runs": len(change)},
        "worse_by": worse_by,
        "spread": widest,
        "bound": bound,
        "wins": wins,
        "pairs": len(pairs),
    }


def error_verdict(parent: Tuple[int, int], change: Tuple[int, int]) -> str:
    """Absolute-zero bound on failures: ``(failed, attempted)`` per side."""
    parent_rate = parent[0] / parent[1] if parent[1] else 0.0
    change_rate = change[0] / change[1] if change[1] else 0.0
    return "worse" if change_rate > parent_rate else "same"
