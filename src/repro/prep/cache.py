"""Thread-safe byte-budget LRU cache for the preparation tiers.

Both tiers of the :class:`~repro.prep.service.PreparationService` —
pipeline output keyed by content digest, cooked documents keyed by the
full request tuple — need the same discipline: bounded memory measured
in **bytes** (entries vary over orders of magnitude, so an entry count
is the wrong budget), least-recently-used eviction, and explicit
invalidation by predicate (drop everything derived from one document
digest).  :class:`ByteBudgetLRU` provides exactly that behind one lock;
the build lock that runs one build per key lives in the service, not
here.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

#: Distinguishes "absent" from a cached ``None`` (never stored, but the
#: sentinel keeps ``get`` unambiguous).
MISS: Any = type("_Miss", (), {"__repr__": lambda self: "<miss>"})()


class ByteBudgetLRU:
    """An LRU mapping bounded by the total byte size of its values.

    Parameters
    ----------
    budget_bytes:
        Soft ceiling on the sum of entry sizes; ``None`` disables
        eviction.  Inserting over budget evicts from the LRU end —
        including, for an entry larger than the whole budget, the new
        entry itself (it is accepted, counted, and immediately
        evicted, so the budget invariant always holds).
    name:
        Label of the tier in :meth:`info`.
    """

    def __init__(self, budget_bytes: Optional[int], name: str = "cache") -> None:
        if budget_bytes is not None and budget_bytes < 0:
            raise ValueError(f"budget_bytes must be >= 0, got {budget_bytes}")
        self.name = name
        self.budget_bytes = budget_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        #: Entries evicted by the byte budget over the cache's life.
        self.evictions = 0

    # -- core mapping ------------------------------------------------------

    def get(self, key: Hashable) -> Any:
        """The cached value (freshened to MRU), or :data:`MISS`."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return MISS
            self._entries.move_to_end(key)
            return entry[0]

    def peek(self, key: Hashable) -> Any:
        """Like :meth:`get` without touching recency."""
        with self._lock:
            entry = self._entries.get(key)
            return MISS if entry is None else entry[0]

    def put(self, key: Hashable, value: Any, size: int) -> List[Hashable]:
        """Insert (or replace) an entry; returns the evicted keys."""
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, size)
            self._bytes += size
            evicted: List[Hashable] = []
            if self.budget_bytes is not None:
                while self._bytes > self.budget_bytes and self._entries:
                    victim, (_value, victim_size) = self._entries.popitem(
                        last=False
                    )
                    self._bytes -= victim_size
                    evicted.append(victim)
            self.evictions += len(evicted)
            return evicted

    def discard(self, key: Hashable) -> bool:
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._bytes -= entry[1]
            return True

    def discard_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies *predicate*."""
        with self._lock:
            victims = [key for key in self._entries if predicate(key)]
            for key in victims:
                self._bytes -= self._entries.pop(key)[1]
            return len(victims)

    def clear(self) -> int:
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self._bytes = 0
            return count

    # -- introspection -----------------------------------------------------

    @property
    def bytes(self) -> int:
        with self._lock:
            return self._bytes

    def audit(self) -> Tuple[int, int]:
        """``(tracked_bytes, recomputed_sum)`` under one lock hold.

        The two must always be equal; the concurrency stress suite
        hammers the mutation API from many threads and asserts the
        gauge never drifts from the ground truth.
        """
        with self._lock:
            return self._bytes, sum(
                size for _value, size in self._entries.values()
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> List[Hashable]:
        with self._lock:
            return list(self._entries)

    def info(self) -> Dict[str, Any]:
        """A snapshot for diagnostics: entry count, bytes, budget, evictions."""
        with self._lock:
            return {
                "name": self.name,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "budget_bytes": self.budget_bytes,
                "evictions": self.evictions,
            }
