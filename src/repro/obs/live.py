"""Wire-propagated trace context for the networked serving path.

A weakly-connected client may cross several TCP connections while
completing one logical transfer (reconnect-and-resume).  To correlate
the client-side and server-side telemetry of that transfer — and to
keep the correlation stable across reconnects — the client mints one
:class:`TraceContext` per fetch and carries it in the ``trace`` field
of every ``HELLO`` it sends:

* ``transfer_id`` — the correlation ID for the whole logical transfer.
  Minted once, reused verbatim on every redial, threaded into the
  client's :class:`~repro.protocol.bridge.TelemetryBridge` and echoed
  by the server on all of its ``net_*`` trace events, so a merged
  JSONL trace shows **one** timeline per transfer no matter how many
  sockets it took.
* ``span_id`` — one span per *connection attempt*
  (``<transfer_id>.c1``, ``.c2``, …), so post-mortems can tell which
  dial a server-side event belongs to.

The context is deliberately tiny and validation is strict but
forgiving: a server receiving a malformed ``trace`` field ignores it
and falls back to a locally minted connection ID — old clients and
junk on the wire can never break serving.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Optional

#: Wire-safe correlation IDs: bounded length, no whitespace, no JSON
#: metacharacters — anything else is ignored by the receiving side.
_ID_PATTERN = re.compile(r"^[A-Za-z0-9._:-]{1,64}$")


def mint_transfer_id() -> str:
    """A fresh 16-hex-digit correlation ID for one logical transfer."""
    import uuid  # clients mint; a server adopts the ids it is sent

    return uuid.uuid4().hex[:16]


def valid_trace_id(value: Any) -> bool:
    """True when *value* is a wire-safe correlation/span ID."""
    return isinstance(value, str) and _ID_PATTERN.match(value) is not None


class TraceContext:
    """The (transfer ID, connection span) pair carried in ``HELLO``."""

    __slots__ = ("transfer_id", "span_id", "attempt")

    def __init__(
        self,
        transfer_id: str,
        span_id: Optional[str] = None,
        attempt: int = 0,
    ) -> None:
        if not valid_trace_id(transfer_id):
            raise ValueError(f"invalid transfer_id {transfer_id!r}")
        if span_id is not None and not valid_trace_id(span_id):
            raise ValueError(f"invalid span_id {span_id!r}")
        self.transfer_id = transfer_id
        self.span_id = span_id
        self.attempt = attempt

    @classmethod
    def mint(cls) -> "TraceContext":
        """A fresh context for one logical transfer (no span yet)."""
        return cls(mint_transfer_id())

    def next_connection(self) -> str:
        """Open the span for the next connection attempt; returns its ID.

        Called once per dial: the transfer ID never changes, the span
        counts up (``.c1`` for the first connection, ``.c2`` for the
        first reconnect, …).
        """
        self.attempt += 1
        self.span_id = f"{self.transfer_id}.c{self.attempt}"
        return self.span_id

    # -- wire form ---------------------------------------------------------

    def to_wire(self) -> Dict[str, str]:
        wire = {"xfer": self.transfer_id}
        if self.span_id is not None:
            wire["span"] = self.span_id
        return wire

    @classmethod
    def from_wire(cls, obj: Any) -> Optional["TraceContext"]:
        """Parse a ``HELLO`` ``trace`` field; ``None`` on anything off.

        Tolerant by design — a server must keep serving clients that
        send no context, an old context shape, or garbage.
        """
        if not isinstance(obj, dict):
            return None
        transfer_id = obj.get("xfer")
        if not valid_trace_id(transfer_id):
            return None
        span_id = obj.get("span")
        if not valid_trace_id(span_id):
            span_id = None
        return cls(transfer_id, span_id)

    def __repr__(self) -> str:
        return f"TraceContext({self.transfer_id!r}, span={self.span_id!r})"
