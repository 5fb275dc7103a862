"""Length-prefixed wire codec for the networked §4.2 protocol.

Every message on a :mod:`repro.net` TCP connection is one envelope::

    +-----------+---------+------------------+
    | length: 4 | type: 1 | body: length - 1 |
    +-----------+---------+------------------+

``length`` (big-endian, covering type + body) keeps the stream
self-synchronizing; ``type`` selects one of the :data:`MSG_*` kinds.
Control messages carry a compact JSON body.  :data:`MSG_FRAME` bodies
are **cooked frames passed through verbatim** — the 2-byte sequence
number, the payload, and the CRC-16 exactly as
:func:`repro.coding.packets.encode_frame` laid them out.  The envelope
deliberately adds no checksum of its own: damage inside a frame body
is detected by the frame's CRC, reproducing the paper's model of
packets "received either intact (without error) or corrupted (with
detectable error)", while the chaos layer keeps envelopes parseable so
the stream itself stays in sync.

Message flow for one fetch::

    client                                server
      | -- HELLO {doc, have}        -->     |
      |  <-- MANIFEST {m, n, ...}   --      |
      |  <-- FRAME xN (minus skip)  --      |
      |  <-- ROUND_END {round}      --      |
      | -- NEXT_ROUND {round, have} -->     |   (stalled: again)
      |        ... more rounds ...          |
      | -- DONE {status, round}     -->     |

A dropped connection at any point is recoverable: the client redials,
sends a fresh ``HELLO`` whose ``have`` lists the intact sequences it
cached, and the server resumes with a round that skips them.  The
``HELLO`` may also carry a ``trace`` context (see
:mod:`repro.obs.live`) correlating every connection of one logical
transfer in the telemetry of both peers.

``STATS`` is the in-band admin frame: a client sends ``STATS {}`` as
its *first* message instead of ``HELLO`` and the server answers with
one ``STATS`` carrying its full operational snapshot (always-on
counters, rolling SLO report, per-connection state), then closes.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Tuple

# The envelope ceiling lives beside the frame layout it must hold: a
# request's packet size is bounded by it (``MAX_PACKET_SIZE``).
from repro.coding.packets import MAX_MESSAGE_SIZE

#: Envelope overhead: the 4-byte length prefix plus the type byte.
ENVELOPE_OVERHEAD = 5

# -- message types ----------------------------------------------------------

MSG_HELLO = 0x01        # client → server: {doc, have, max_rounds, prep?, trace?}
MSG_MANIFEST = 0x02     # server → client: {doc, m, n, packet_size, ...}
MSG_FRAME = 0x03        # server → client: raw cooked frame (CRC passthrough)
MSG_ROUND_END = 0x04    # server → client: {round, sent}
MSG_NEXT_ROUND = 0x05   # client → server: {round, have}
MSG_DONE = 0x06         # client → server: {status, round}
MSG_ERROR = 0x07        # either direction: {message}
MSG_STATS = 0x08        # admin: {} request (C → S), snapshot reply (S → C)
MSG_AIR_INDEX = 0x09    # server → client: carousel air index (JSON map)
MSG_BCAST_FRAME = 0x0A  # server → client: 1-byte doc tag + raw cooked frame

MESSAGE_NAMES = {
    MSG_HELLO: "hello",
    MSG_MANIFEST: "manifest",
    MSG_FRAME: "frame",
    MSG_ROUND_END: "round_end",
    MSG_NEXT_ROUND: "next_round",
    MSG_DONE: "done",
    MSG_ERROR: "error",
    MSG_STATS: "stats",
    MSG_AIR_INDEX: "air_index",
    MSG_BCAST_FRAME: "bcast_frame",
}


class WireError(Exception):
    """The byte stream violated the envelope or message grammar."""


class ConnectionLost(WireError):
    """The peer went away mid-message (EOF, reset, or timeout)."""


def encode_message(msg_type: int, body: bytes = b"") -> bytes:
    """Serialize one envelope."""
    if msg_type not in MESSAGE_NAMES:
        raise WireError(f"unknown message type {msg_type:#x}")
    length = len(body) + 1
    if length + 4 > MAX_MESSAGE_SIZE + ENVELOPE_OVERHEAD - 1:
        raise WireError(f"message of {len(body)} bytes exceeds MAX_MESSAGE_SIZE")
    return length.to_bytes(4, "big") + bytes([msg_type]) + body


def encode_json(msg_type: int, fields: Dict[str, Any]) -> bytes:
    """Serialize a control message with a JSON body."""
    body = json.dumps(fields, separators=(",", ":")).encode("utf-8")
    return encode_message(msg_type, body)


def decode_json(body: bytes) -> Dict[str, Any]:
    """Parse a control-message body, mapping malformation to WireError."""
    try:
        fields = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"malformed control body: {exc}") from None
    if not isinstance(fields, dict):
        raise WireError(f"control body must be an object, got {type(fields).__name__}")
    return fields


async def read_message(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    """Read one envelope; raises :class:`ConnectionLost` on EOF.

    A clean EOF *between* envelopes is still :class:`ConnectionLost` —
    the protocol always ends with an explicit ``DONE``/``ERROR``, so
    any EOF means the peer (or the chaos layer) severed the link.
    """
    try:
        header = await reader.readexactly(4)
    except (asyncio.IncompleteReadError, ConnectionError) as exc:
        raise ConnectionLost(f"connection closed while reading length: {exc}") from None
    length = int.from_bytes(header, "big")
    if length < 1 or length > MAX_MESSAGE_SIZE:
        raise WireError(f"envelope length {length} outside 1..{MAX_MESSAGE_SIZE}")
    try:
        envelope = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError) as exc:
        raise ConnectionLost(f"connection closed mid-message: {exc}") from None
    msg_type = envelope[0]
    if msg_type not in MESSAGE_NAMES:
        raise WireError(f"unknown message type {msg_type:#x}")
    return msg_type, envelope[1:]


def check_expected(msg_type: int, body: bytes, *expected: int) -> None:
    """Require *msg_type* to be in *expected*.

    An ``ERROR`` message outside *expected* surfaces as a
    :class:`WireError` carrying the peer's explanation.
    """
    if msg_type in expected:
        return
    if msg_type == MSG_ERROR:
        message = decode_json(body).get("message", "unspecified")
        raise WireError(f"peer error: {message}")
    names = "/".join(MESSAGE_NAMES[t] for t in expected)
    raise WireError(f"expected {names}, got {MESSAGE_NAMES[msg_type]}")


async def read_expected(
    reader: asyncio.StreamReader, *expected: int
) -> Tuple[int, bytes]:
    """Read one envelope and require its type (see :func:`check_expected`)."""
    msg_type, body = await read_message(reader)
    check_expected(msg_type, body, *expected)
    return msg_type, body
