"""Random-number-generator plumbing for reproducible simulations.

The simulation harness repeats every experiment many times; each
repetition must be independent yet reproducible from a single master
seed.  We derive child generators deterministically from a parent
generator and a string label so adding a new consumer of randomness
never perturbs the streams of existing consumers.
"""

from __future__ import annotations

import random
from typing import Iterable, List

from repro.util.nossl import sha256


def derive_rng(parent: random.Random, label: str) -> random.Random:
    """Create a child :class:`random.Random` from *parent* and *label*.

    The child's seed combines a draw from the parent stream with a hash
    of the label, so two children derived with different labels are
    decorrelated even if the parent is at the same state.
    """
    salt = parent.getrandbits(64)
    digest = sha256(f"{label}:{salt}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def spawn_rngs(seed: int, labels: Iterable[str]) -> List[random.Random]:
    """Spawn one independent generator per label from a master *seed*."""
    parent = random.Random(seed)
    return [derive_rng(parent, label) for label in labels]
