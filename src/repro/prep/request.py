"""Frozen request objects for content preparation and transfer.

Before this module existed the knobs of a fetch — LOD, query,
packet size, redundancy ratio, retransmission bounds —
were threaded ad hoc as keyword arguments through ``cli.py``,
``transport/session.py``, ``net/client.py``, and
``prototype/client.py``, each with its own defaults and its own subset.
Two dataclasses consolidate the sprawl:

* :class:`PrepRequest` — everything the **server** needs to cook a
  document: it is hashable, canonicalized, wire-serializable, and its
  :meth:`PrepRequest.cache_key` is the cooked-tier cache key of the
  :class:`~repro.prep.service.PreparationService`;
* :class:`TransferSettings` — everything the **client** needs to run
  the §4.2 protocol: relevance threshold, retransmission bound, round
  timeout, reconnect budget.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional, Tuple

from repro.coding.packets import MAX_PACKET_SIZE
from repro.core.lod import LOD
from repro.protocol import DEFAULT_MAX_ROUNDS, DEFAULT_ROUND_TIMEOUT
from repro.util.validation import check_positive_int

class DeliveryMode(str, enum.Enum):
    """How cooked packets reach the client.

    ``UNICAST`` is the paper's per-client §4.2 protocol: dedicated
    rounds, explicit retransmission, one stream per reader.
    ``CAROUSEL`` subscribes the client to a shared broadcast carousel
    (:mod:`repro.broadcast`): the server cycles the cooked packets of
    hot documents on one stream and the receiver collects any M intact
    packets across cycles — no retransmission protocol at all.

    The mode is a first-class part of the request contract: carried in
    the ``HELLO`` ``prep`` wire form, folded into the cooked-tier
    cache key, and validated through the same bad-parameter error path
    as every other field.  A ``str`` subclass so wire/JSON encoding and
    cache-key hashing need no special cases.
    """

    UNICAST = "unicast"
    CAROUSEL = "carousel"

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.value


def _coerce_delivery(value: Any) -> DeliveryMode:
    """Parse a delivery mode, raising ``ValueError`` on junk."""
    if isinstance(value, DeliveryMode):
        return value
    if not isinstance(value, str):
        raise ValueError(
            f"delivery must be a string, got {value!r}"
        )
    try:
        return DeliveryMode(value.strip().lower())
    except ValueError:
        raise ValueError(
            f"unknown delivery mode {value!r}; choose from "
            f"{sorted(mode.value for mode in DeliveryMode)}"
        ) from None

_LOD_NAMES = frozenset(lod.name.lower() for lod in LOD)

#: Content-measure keys a request may name ("auto" resolves per query):
#: the measures :func:`repro.core.information.serve_measure` builds from
#: a document and a query.  ``tfidf`` is not one of them, because it needs
#: corpus statistics that no request carries.  ``qic`` and ``mqic``
#: need a query with keywords; the cook raises ``ValueError`` without.
KNOWN_MEASURES = frozenset({"auto", "ic", "qic", "mqic", "proportional"})

#: The resolved measures that read the query (the others rank alike for
#: every query, so their cache key leaves it out).
_QUERY_MEASURES = frozenset({"qic", "mqic"})


def _normalize_query(query: str) -> str:
    """Canonical query key: collapsed whitespace, case-folded."""
    return " ".join(query.split()).lower()


@dataclass(frozen=True)
class PrepRequest:
    """One canonical content-preparation request.

    Parameters
    ----------
    lod:
        Level-of-detail name (``"paragraph"`` … ``"document"``),
        case-insensitive.
    measure:
        Content-measure key ranking the units (one of
        :data:`KNOWN_MEASURES`); ``"auto"`` resolves to ``"mqic"`` when
        a query is present, ``"ic"`` otherwise.  ``"qic"``/``"mqic"``
        with a query that has no keywords (empty, or only stop words)
        make the cook raise ``ValueError``; ``"auto"`` then ranks by
        ``"ic"``.
    query:
        Free-text query driving query-based measures.  Part of the
        cache key of ``qic``/``mqic`` in normalized form
        (whitespace-collapsed, case-folded).
    packet_size:
        Raw payload bytes per packet (the paper's ``s_p``), at most
        :data:`~repro.coding.packets.MAX_PACKET_SIZE` so that every
        frame fits one wire envelope.
    gamma:
        Redundancy ratio γ = N/M (≥ 1).
    systematic:
        True for the paper's clear-text-prefix code.
    delivery:
        :class:`DeliveryMode` selecting unicast rounds or the shared
        broadcast carousel (string values accepted, canonicalized).
    """

    lod: str = "paragraph"
    measure: str = "auto"
    query: str = ""
    packet_size: int = 256
    gamma: float = 1.5
    systematic: bool = True
    delivery: DeliveryMode = DeliveryMode.UNICAST

    def __post_init__(self) -> None:
        object.__setattr__(self, "delivery", _coerce_delivery(self.delivery))
        object.__setattr__(self, "lod", str(self.lod).strip().lower())
        object.__setattr__(self, "measure", str(self.measure).strip().lower())
        object.__setattr__(self, "query", str(self.query))
        if self.lod not in _LOD_NAMES:
            raise ValueError(
                f"unknown lod {self.lod!r}; choose from {sorted(_LOD_NAMES)}"
            )
        if self.measure not in KNOWN_MEASURES:
            raise ValueError(
                f"unknown measure {self.measure!r}; "
                f"choose from {sorted(KNOWN_MEASURES)}"
            )
        check_positive_int(self.packet_size, "packet_size")
        if self.packet_size > MAX_PACKET_SIZE:
            raise ValueError(
                f"packet_size {self.packet_size} exceeds {MAX_PACKET_SIZE}, "
                f"the largest whose frame fits one wire envelope"
            )
        if self.gamma < 1.0:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")

    # -- canonical views ---------------------------------------------------

    @property
    def query_key(self) -> str:
        """The normalized query used for cache keying."""
        return _normalize_query(self.query)

    @property
    def resolved_measure(self) -> str:
        """``measure`` with ``"auto"`` resolved against the query."""
        if self.measure != "auto":
            return self.measure
        return "mqic" if self.query_key else "ic"

    @property
    def lod_level(self) -> LOD:
        return LOD[self.lod.upper()]

    def cache_key(self, digest: str) -> Tuple:
        """The full canonical cooked-tier key for a document *digest*.

        ``ic`` and ``proportional`` read no query, so their key carries
        an empty one: every query string shares their one cook.
        """
        measure = self.resolved_measure
        return (
            digest,
            self.lod,
            measure,
            self.query_key if measure in _QUERY_MEASURES else "",
            self.packet_size,
            self.gamma,
            self.systematic,
            self.delivery.value,
        )

    def replace(self, **changes: Any) -> "PrepRequest":
        """A copy with *changes* applied (re-validated)."""
        return replace(self, **changes)

    # -- wire form ---------------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        """JSON-safe dict carried in the ``HELLO`` ``prep`` field."""
        wire: Dict[str, Any] = {
            "lod": self.lod,
            "measure": self.measure,
            "query": self.query,
            "packet_size": self.packet_size,
            "gamma": self.gamma,
            "systematic": self.systematic,
        }
        if self.delivery is not DeliveryMode.UNICAST:
            # Omitted when unicast so pre-DeliveryMode peers keep
            # parsing HELLO{prep} unchanged.
            wire["delivery"] = self.delivery.value
        return wire

    @classmethod
    def from_wire(cls, fields_in: Dict[str, Any]) -> "PrepRequest":
        """Parse and validate a wire dict; raises ``ValueError`` on junk."""
        if not isinstance(fields_in, dict):
            raise ValueError("prep parameters must be an object")
        known = {f.name for f in fields(cls)}
        unknown = set(fields_in) - known
        if unknown:
            raise ValueError(f"unknown prep parameter(s) {sorted(unknown)}")
        kwargs: Dict[str, Any] = {}
        for name in ("lod", "measure", "query"):
            if name in fields_in:
                value = fields_in[name]
                if not isinstance(value, str):
                    raise ValueError(f"{name} must be a string, got {value!r}")
                kwargs[name] = value
        if "packet_size" in fields_in:
            value = fields_in["packet_size"]
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"packet_size must be an int, got {value!r}")
            kwargs["packet_size"] = value
        if "gamma" in fields_in:
            value = fields_in["gamma"]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"gamma must be a number, got {value!r}")
            kwargs["gamma"] = float(value)
        if "systematic" in fields_in:
            value = fields_in["systematic"]
            if not isinstance(value, bool):
                raise ValueError(f"systematic must be a bool, got {value!r}")
            kwargs["systematic"] = value
        if "delivery" in fields_in:
            kwargs["delivery"] = _coerce_delivery(fields_in["delivery"])
        return cls(**kwargs)


@dataclass(frozen=True)
class TransferSettings:
    """Client-side knobs for one §4.2 transfer.

    Parameters
    ----------
    relevance_threshold:
        The paper's F — early-stop once received content reaches it;
        ``None`` downloads to completion.
    max_rounds:
        Retransmission-round bound before the transfer fails.
    round_timeout:
        Wall-clock (or channel-time) bound on one round, seconds.
    max_reconnects:
        Redials allowed per networked fetch.
    use_cache:
        Selects the paper's Caching policy (packets survive stalls and
        disconnections) where the caller doesn't pass a cache object.
    delivery:
        :class:`DeliveryMode` the client drives: ``UNICAST`` runs the
        round/NEXT_ROUND loop, ``CAROUSEL`` subscribes to the shared
        broadcast stream and collects packets passively.
    """

    relevance_threshold: Optional[float] = None
    max_rounds: int = DEFAULT_MAX_ROUNDS
    round_timeout: float = DEFAULT_ROUND_TIMEOUT
    max_reconnects: int = 4
    use_cache: bool = False
    delivery: DeliveryMode = DeliveryMode.UNICAST

    def __post_init__(self) -> None:
        object.__setattr__(self, "delivery", _coerce_delivery(self.delivery))
        check_positive_int(self.max_rounds, "max_rounds")
        if self.round_timeout <= 0:
            raise ValueError(
                f"round_timeout must be positive, got {self.round_timeout}"
            )
        if self.max_reconnects < 0:
            raise ValueError(
                f"max_reconnects must be >= 0, got {self.max_reconnects}"
            )

    def replace(self, **changes: Any) -> "TransferSettings":
        return replace(self, **changes)
