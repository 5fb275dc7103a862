"""Occurrence vectors and keyword weights (paper §3.1).

The paper represents a document ``D`` by the occurrence vector of its
keywords, ``V_D = {|a_D| : a ∈ A_D}``, and weights each keyword by

    ω_a = 1 − log2(|a_D| / ‖V_D‖)

with the infinity norm ``‖V_D‖∞ = max(v_i)``, so the most frequent
keyword has weight 1 and rarer keywords have larger weights (the
logarithm of a fraction ≤ 1 is ≤ 0).  The same construction applies to
queries, where repeating a querying word raises its count and therefore
*lowers* its weight relative to the ceiling — the paper's emphasis
mechanism operates through the occurrence counts themselves.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, Mapping

_SUPPORTED_NORMS = ("infinity", "l1", "l2")


class OccurrenceVector:
    """Immutable keyword→count mapping with norm and weight computation.

    Parameters
    ----------
    counts:
        Mapping from keyword to its number of occurrences; non-positive
        counts are rejected.
    norm:
        Which vector norm to use in the weight formula.  The paper
        chooses the infinity norm; ``l1`` and ``l2`` are provided for
        the "alternative ways of defining the information content"
        explored in §6.
    """

    def __init__(self, counts: Mapping[str, int], norm: str = "infinity") -> None:
        if norm not in _SUPPORTED_NORMS:
            raise ValueError(f"norm must be one of {_SUPPORTED_NORMS}, got {norm!r}")
        clean: Dict[str, int] = {}
        for keyword, count in counts.items():
            if not isinstance(count, int) or isinstance(count, bool):
                raise TypeError(f"count for {keyword!r} must be int, got {count!r}")
            if count <= 0:
                raise ValueError(f"count for {keyword!r} must be > 0, got {count}")
            clean[keyword] = count
        self._counts = clean
        self._norm_kind = norm
        self._norm_value = self._compute_norm()
        self._weights: Dict[str, float] = {}

    @classmethod
    def from_tokens(cls, tokens: Iterable[str], norm: str = "infinity") -> "OccurrenceVector":
        """Build a vector by counting a token stream."""
        return cls(Counter(tokens), norm=norm)

    def _compute_norm(self) -> float:
        values = list(self._counts.values())
        if not values:
            return 0.0
        if self._norm_kind == "infinity":
            return float(max(values))
        if self._norm_kind == "l1":
            return float(sum(values))
        return math.sqrt(sum(v * v for v in values))

    # -- mapping-style access -------------------------------------------

    def count(self, keyword: str) -> int:
        """Occurrence count of *keyword* (0 when absent)."""
        return self._counts.get(keyword, 0)

    def __contains__(self, keyword: str) -> bool:
        return keyword in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self):
        return iter(self._counts)

    def keywords(self) -> frozenset:
        return frozenset(self._counts)

    def items(self):
        return self._counts.items()

    @property
    def norm(self) -> float:
        """The vector norm ‖V‖ used in the weight formula."""
        return self._norm_value

    @property
    def norm_kind(self) -> str:
        """Which norm the weight formula uses (``infinity``, ``l1``, ``l2``)."""
        return self._norm_kind

    @property
    def total(self) -> int:
        """Total occurrences across all keywords (Σ|a|)."""
        return sum(self._counts.values())

    # -- weights ----------------------------------------------------------

    def weight(self, keyword: str) -> float:
        """The paper's keyword weight ω_a = 1 − log2(|a| / ‖V‖).

        Absent keywords have weight 0, matching the paper's convention
        for querying words (ω_a^Q = 0 when |a_Q| = 0).
        """
        cached = self._weights.get(keyword)
        if cached is not None:
            return cached
        occurrences = self._counts.get(keyword, 0)
        if occurrences == 0 or self._norm_value == 0:
            return 0.0
        value = 1.0 - math.log2(occurrences / self._norm_value)
        self._weights[keyword] = value
        return value

    def _weight_table(self) -> Dict[str, float]:
        """The weight memo, filled for every keyword in keyword order."""
        if len(self._weights) != len(self._counts):
            self._weights = {keyword: self.weight(keyword) for keyword in self._counts}
        return self._weights

    def weights(self) -> Dict[str, float]:
        """All keyword weights as a fresh dict."""
        return dict(self._weight_table())

    def weighted_total(self) -> float:
        """Σ_a |a| · ω_a — the normalizer of the IC definition."""
        weights = self._weight_table()
        return sum(count * weights[keyword] for keyword, count in self._counts.items())

    def __repr__(self) -> str:
        return (
            f"OccurrenceVector({len(self._counts)} keywords, "
            f"norm={self._norm_kind}:{self._norm_value:g})"
        )
