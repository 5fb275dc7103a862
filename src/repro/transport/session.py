"""Byte-exact driver for the §4.2 transfer protocol (paper §4.2).

One call to :func:`transfer_document` plays out a complete download of
one prepared document over the wireless channel, round by round.  The
*decision logic* — when to terminate, when a round has stalled, what
the cache policy keeps — lives in the sans-IO
:class:`repro.protocol.TransferEngine`; this module is the thin I/O
driver that owns everything the engine must not touch:

1. The server streams all N cooked frames in sequence order over the
   :class:`~repro.transport.channel.WirelessChannel`.
2. The :class:`~repro.transport.receiver.TransferReceiver` CRC-checks
   each delivery and holds the intact payload bytes; the driver
   reports each outcome to the engine, which terminates the stream as
   soon as one of the paper's three conditions holds: the document is
   reconstructable (M intact packets); all cooked packets have been
   received; or the document was judged irrelevant (received content ≥
   the relevance threshold F — the "stop button").
3. If a round ends with fewer than M intact packets, the transfer is
   *stalled*.  With a :class:`~repro.transport.cache.PacketCache` the
   intact packets survive into the next round (Caching); with
   :class:`~repro.transport.cache.NullCache` the client starts over
   (NoCaching — the default HTTP reload behaviour).

Telemetry for the protocol events flows through the engine's
:class:`~repro.protocol.bridge.TelemetryBridge`; the driver only
reports the I/O facts (frames on the air, channel time) at the end.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.prep import PreparedDocument, TransferSettings
from repro.protocol import Decoded, EarlyStop, TelemetryBridge, TransferEngine
from repro.transport.cache import NullCache, PacketCache
from repro.transport.channel import WirelessChannel
from repro.transport.receiver import TransferReceiver


class TransferResult(NamedTuple):
    """Outcome of one document transfer."""

    document_id: str
    success: bool              # document reconstructable (or relevance decided)
    terminated_early: bool     # stopped by the relevance threshold
    response_time: float       # seconds of channel time consumed
    rounds: int                # transmission rounds used (1 = no stall)
    frames_sent: int           # total frames put on the air
    content_received: float    # information content available at the end
    payload: Optional[bytes]   # reconstructed document (None if early-stop)


def transfer_document(
    prepared: PreparedDocument,
    channel: WirelessChannel,
    cache: Optional[PacketCache] = None,
    *,
    settings: Optional[TransferSettings] = None,
) -> TransferResult:
    """Download *prepared* over *channel*; see the module docstring.

    Parameters
    ----------
    cache:
        ``None`` selects NoCaching (or Caching with a fresh
        :class:`PacketCache` when ``settings.use_cache`` is set).  Pass
        a shared :class:`PacketCache` for Caching across transfers.
    settings:
        The client-side protocol knobs —
        :class:`repro.prep.TransferSettings` (defaults when ``None``).
        ``relevance_threshold`` is the paper's F (stop once received
        content reaches it; ``None`` downloads to completion);
        ``max_rounds`` bounds retransmission rounds; ``round_timeout``
        bounds per-round channel time.
    """
    if settings is None:
        settings = TransferSettings()
    relevance_threshold = settings.relevance_threshold
    max_rounds = settings.max_rounds
    round_timeout = settings.round_timeout
    if cache is None:
        cache = PacketCache() if settings.use_cache else NullCache()

    start_time = channel.clock
    frames = prepared.frames()
    frames_sent = 0
    receiver = TransferReceiver(prepared)

    bridge = TelemetryBridge("transfer")
    engine = TransferEngine(
        prepared.m,
        prepared.n,
        content_profile=prepared.content_profile,
        relevance_threshold=relevance_threshold,
        max_rounds=max_rounds,
        document_id=prepared.document_id,
        bridge=bridge,
    )
    engine.open()  # cache telemetry below lands inside the transfer scope
    receiver.preload(cache.load(prepared.document_id))
    engine.preload(receiver.intact)

    terminal = engine.start()
    round_started = channel.clock
    while terminal is None:
        for wire in frames:
            delivery = channel.send(wire)
            frames_sent += 1
            sequence = receiver.offer(delivery)
            if sequence is not None:
                terminal = engine.on_frame_intact(sequence)
            elif delivery.lost:
                terminal = engine.on_frame_lost()
            else:
                terminal = engine.on_frame_corrupt()
            if terminal is not None:
                break
        else:
            # Stalled: fewer than M intact after the full round.  The
            # cache decides whether the intact set survives; the engine
            # mirrors whatever the cache actually retained.
            receiver.reconcile(len(frames))
            _store_cache(cache, prepared, receiver)
            if channel.clock - round_started >= round_timeout:
                # The link is too slow to ever finish a round inside
                # the timeout: give up rather than loop to max_rounds.
                terminal = engine.abort()
                break
            carried = not isinstance(cache, NullCache) and bool(
                cache.load(prepared.document_id)
            )
            if not carried:
                receiver = TransferReceiver(prepared)
            terminal = engine.on_round_ended(carried=carried)
            round_started = channel.clock

    if isinstance(terminal, EarlyStop):
        if terminal.round > 0:
            _store_cache(cache, prepared, receiver)
        result = TransferResult(
            document_id=prepared.document_id,
            success=True,
            terminated_early=True,
            response_time=channel.clock - start_time if terminal.round else 0.0,
            rounds=terminal.round,
            frames_sent=frames_sent,
            content_received=terminal.content,
            payload=None,
        )
    elif isinstance(terminal, Decoded):
        cache.discard(prepared.document_id)
        result = TransferResult(
            document_id=prepared.document_id,
            success=True,
            terminated_early=False,
            response_time=channel.clock - start_time if terminal.round else 0.0,
            rounds=terminal.round,
            frames_sent=frames_sent,
            content_received=receiver.content_received,
            payload=receiver.reconstruct(),
        )
    else:  # Failed: the retransmission bound was exhausted.
        result = TransferResult(
            document_id=prepared.document_id,
            success=False,
            terminated_early=False,
            response_time=channel.clock - start_time,
            rounds=terminal.round,
            frames_sent=frames_sent,
            content_received=receiver.content_received,
            payload=None,
        )
    bridge.complete(
        success=result.success,
        terminated_early=result.terminated_early,
        rounds=result.rounds,
        frames=result.frames_sent,
        content=result.content_received,
        response_time=result.response_time,
    )
    return result


def _store_cache(
    cache: PacketCache, prepared: PreparedDocument, receiver: TransferReceiver
) -> None:
    for sequence, payload in receiver.intact.items():
        cache.store(prepared.document_id, sequence, payload)
