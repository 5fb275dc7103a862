"""Parse ``--chaos-model`` specs into :class:`~repro.channel.ChannelModel`s.

Grammar (one spec string, no spaces)::

    iid:drop=P,corrupt=P,disconnect=P,outage=N
    gilbert:alpha=A,burst=L[,good=P,bad=P]
    gilbert:good=P,bad=P,g2b=P,b2g=P
    trace:PATH.json

``iid:`` keys all default to 0 (``alpha`` is accepted as an alias for
``corrupt``, matching the transport channels' vocabulary).  ``gilbert:``
comes in two forms: the *matched* form solves the transition
probabilities so the stationary corruption rate equals ``alpha``
(see :func:`repro.channel.matched_transitions`), while the *explicit*
form names the four chain parameters directly.  ``trace:`` loads the
JSON trace format documented in :mod:`repro.channel.trace`.

Every model kind accepts an optional trailing ``bandwidth=KBPS`` pair
(for traces the per-segment bandwidth wins where present).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Tuple

from repro.channel.model import (
    ChannelModel,
    GilbertElliottModel,
    IIDModel,
    matched_transitions,
)
from repro.channel.trace import TraceModel

_IID_KEYS = ("drop", "corrupt", "alpha", "disconnect", "outage", "bandwidth")
_GILBERT_KEYS = ("alpha", "burst", "good", "bad", "g2b", "b2g", "bandwidth")


def _parse_pairs(body: str, kind: str, allowed: Tuple[str, ...]) -> Dict[str, str]:
    pairs: Dict[str, str] = {}
    if not body:
        return pairs
    for token in body.split(","):
        if "=" not in token:
            raise ValueError(
                f"bad {kind!r} model spec: expected key=value, got {token!r}"
            )
        key, _, value = token.partition("=")
        key = key.strip()
        if key not in allowed:
            raise ValueError(
                f"bad {kind!r} model spec: unknown key {key!r} "
                f"(valid: {', '.join(allowed)})"
            )
        if key in pairs:
            raise ValueError(f"bad {kind!r} model spec: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def _to_float(kind: str, key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValueError(
            f"bad {kind!r} model spec: {key}={value!r} is not a number"
        ) from None


def _to_int(kind: str, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(
            f"bad {kind!r} model spec: {key}={value!r} is not an integer"
        ) from None


def _build_iid(body: str, rng: Optional[random.Random]) -> IIDModel:
    pairs = _parse_pairs(body, "iid", _IID_KEYS)
    if "corrupt" in pairs and "alpha" in pairs:
        raise ValueError(
            "bad 'iid' model spec: give either corrupt= or its alias alpha=, not both"
        )
    corrupt = pairs.get("corrupt", pairs.get("alpha", "0"))
    bandwidth = pairs.get("bandwidth")
    return IIDModel(
        rng=rng,
        drop=_to_float("iid", "drop", pairs.get("drop", "0")),
        corrupt=_to_float("iid", "corrupt", corrupt),
        disconnect=_to_float("iid", "disconnect", pairs.get("disconnect", "0")),
        outage_events=_to_int("iid", "outage", pairs.get("outage", "0")),
        bandwidth_kbps=(
            _to_float("iid", "bandwidth", bandwidth) if bandwidth is not None else None
        ),
    )


def _build_gilbert(body: str, rng: Optional[random.Random]) -> GilbertElliottModel:
    pairs = _parse_pairs(body, "gilbert", _GILBERT_KEYS)
    bandwidth = pairs.get("bandwidth")
    bandwidth_kbps = (
        _to_float("gilbert", "bandwidth", bandwidth) if bandwidth is not None else None
    )
    explicit = {"g2b", "b2g"} & set(pairs)
    if explicit and ("alpha" in pairs or "burst" in pairs):
        raise ValueError(
            "bad 'gilbert' model spec: mix of matched (alpha=/burst=) and "
            "explicit (g2b=/b2g=) forms"
        )
    if explicit:
        if explicit != {"g2b", "b2g"}:
            raise ValueError(
                "bad 'gilbert' model spec: explicit form needs both g2b= and b2g="
            )
        return GilbertElliottModel(
            rng=rng,
            good_alpha=_to_float("gilbert", "good", pairs.get("good", "0.02")),
            bad_alpha=_to_float("gilbert", "bad", pairs.get("bad", "0.95")),
            good_to_bad=_to_float("gilbert", "g2b", pairs["g2b"]),
            bad_to_good=_to_float("gilbert", "b2g", pairs["b2g"]),
            bandwidth_kbps=bandwidth_kbps,
        )
    if "alpha" not in pairs:
        raise ValueError(
            "bad 'gilbert' model spec: need alpha= (matched form) "
            "or g2b=/b2g= (explicit form)"
        )
    return GilbertElliottModel.matched_to_alpha(
        _to_float("gilbert", "alpha", pairs["alpha"]),
        burst_length=_to_float("gilbert", "burst", pairs.get("burst", "5")),
        good_alpha=_to_float("gilbert", "good", pairs.get("good", "0.02")),
        bad_alpha=_to_float("gilbert", "bad", pairs.get("bad", "0.95")),
        rng=rng,
        bandwidth_kbps=bandwidth_kbps,
    )


def _build_trace(body: str, rng: Optional[random.Random]) -> TraceModel:
    if not body:
        raise ValueError("bad 'trace' model spec: need trace:PATH.json")
    return TraceModel.from_json(body, rng=rng)


_BUILDERS: Dict[str, Callable[[str, Optional[random.Random]], ChannelModel]] = {
    "iid": _build_iid,
    "gilbert": _build_gilbert,
    "trace": _build_trace,
}


def parse_model_spec(
    spec: str, *, rng: Optional[random.Random] = None, seed: Optional[int] = None
) -> ChannelModel:
    """Build a channel model from a ``--chaos-model`` spec string.

    Exactly one of ``rng`` / ``seed`` may be given; with neither the
    model falls back to its own default seed (0), keeping specs
    reproducible by construction.
    """
    if rng is not None and seed is not None:
        raise ValueError("give either rng or seed, not both")
    if seed is not None:
        rng = random.Random(seed)
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(f"empty channel model spec: {spec!r}")
    kind, sep, body = spec.strip().partition(":")
    kind = kind.strip().lower()
    builder = _BUILDERS.get(kind)
    if builder is None:
        raise ValueError(
            f"unknown channel model kind {kind!r} "
            f"(valid: {', '.join(sorted(_BUILDERS))}; "
            "e.g. iid:drop=0.1 | gilbert:alpha=0.2,burst=5 | trace:FILE.json)"
        )
    return builder(body.strip() if sep else "", rng)
