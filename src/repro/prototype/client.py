"""Client-side prototype components (Figure 1, left half).

``SequenceManager`` drives the packet stream for one fetch: it is the
broker-side *driver* of the sans-IO
:class:`repro.protocol.TransferEngine` — deliveries become typed
input events, and the engine's effects are mapped onto the I/O the
prototype owns (``RenderPrefix`` → ``RenderingManager``, round
bookkeeping → the packet cache).  ``RenderingManager`` "renders each
organizational unit incrementally at the proper position in the
browsing window when the unit is received" (§3.3).  ``MobileBrowser``
wires both to the broker.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.prep import PreparedDocument, PrepRequest, TransferSettings
from repro.protocol import (
    Decoded,
    EarlyStop,
    FrameCorrupt,
    FrameDelivered,
    FrameLost,
    RenderPrefix,
    RoundEnded,
    SendRound,
    TERMINAL_EFFECTS,
    TelemetryBridge,
    TransferEngine,
)
from repro.prototype.broker import ObjectRequestBroker
from repro.prototype.messages import (
    BrowseResult,
    FetchManifest,
    FetchRequest,
    RenderEvent,
)
from repro.transport.cache import NullCache, PacketCache
from repro.transport.channel import WirelessChannel
from repro.transport.receiver import TransferReceiver

#: ``structure.py`` marks a section's heading unit by suffixing its
#: label with ``(title)``; only that trailing marker is stripped.
_TITLE_SUFFIX = re.compile(r"\s*\(title\)\s*$")


def _label_sort_key(label: str) -> Tuple:
    """Document-order key for hierarchical labels like ``3.2.1``.

    The key is *total* over mixed alpha/numeric labels: each
    dot-separated piece maps to ``(kind, number, text)`` where
    non-numeric pieces (kind 0, compared as text) order before numeric
    ones (kind 1, compared as integers — so ``2.10`` follows ``2.2``).
    """
    parts = []
    for piece in _TITLE_SUFFIX.sub("", label).split("."):
        piece = piece.strip()
        if piece.isdigit():
            parts.append((1, int(piece), ""))
        else:
            parts.append((0, 0, piece))
    return tuple(parts)


class RenderingManager:
    """Incremental renderer: shows units as their bytes become usable."""

    def __init__(self, manifest: FetchManifest) -> None:
        self._manifest = manifest
        ordered = sorted(manifest.units, key=lambda unit: _label_sort_key(unit.label))
        self._positions = {unit.label: index for index, unit in enumerate(ordered)}
        self._rendered_labels: set = set()
        self.events: List[RenderEvent] = []

    def on_bytes(self, stream: bytes, time: float) -> List[RenderEvent]:
        """Render every not-yet-shown unit fully covered by *stream*.

        *stream* is the contiguous prefix of the transmission stream
        that the receiver can decode so far (clear-text prefix, or the
        whole document after reconstruction).
        """
        fresh: List[RenderEvent] = []
        available = len(stream)
        for unit in self._manifest.units:
            if unit.label in self._rendered_labels:
                continue
            end = unit.offset + unit.size
            if end <= available:
                text = stream[unit.offset : end].decode("utf-8", errors="replace")
                event = RenderEvent(
                    time=time,
                    label=unit.label,
                    text=text,
                    position=self._positions[unit.label],
                )
                self._rendered_labels.add(unit.label)
                self.events.append(event)
                fresh.append(event)
        return fresh

    @property
    def rendered_count(self) -> int:
        return len(self._rendered_labels)

    def rendered_content(self) -> float:
        """Content-measure mass of everything rendered so far."""
        return sum(
            unit.content
            for unit in self._manifest.units
            if unit.label in self._rendered_labels
        )


class SequenceManager:
    """Broker-side driver of the §4.2 engine with incremental rendering.

    Protocol knobs come from ``settings``
    (:class:`repro.prep.TransferSettings`; defaults when ``None``).
    """

    def __init__(
        self,
        channel: WirelessChannel,
        cache: Optional[PacketCache] = None,
        *,
        settings: Optional[TransferSettings] = None,
    ) -> None:
        if settings is None:
            settings = TransferSettings()
        self.channel = channel
        if cache is None:
            cache = PacketCache() if settings.use_cache else NullCache()
        self.cache = cache
        self.settings = settings
        self.max_rounds = settings.max_rounds
        #: Channel-time bound per round (shared
        #: :data:`repro.protocol.DEFAULT_ROUND_TIMEOUT`): a stalled
        #: round at least this long aborts the fetch.
        self.round_timeout = settings.round_timeout

    def run(
        self,
        manifest: FetchManifest,
        prepared: PreparedDocument,
        renderer: RenderingManager,
        relevance_threshold: Optional[float] = None,
    ) -> BrowseResult:
        if relevance_threshold is None:
            relevance_threshold = self.settings.relevance_threshold
        start = self.channel.clock
        receiver = TransferReceiver(prepared)
        frames = prepared.frames()
        frames_sent = 0

        bridge = TelemetryBridge("transfer")
        engine = TransferEngine(
            prepared.m,
            prepared.n,
            content_profile=prepared.content_profile,
            relevance_threshold=relevance_threshold,
            max_rounds=self.max_rounds,
            document_id=prepared.document_id,
            bridge=bridge,
            track_prefix=True,
        )
        engine.open()  # cache telemetry below lands inside the scope
        receiver.preload(self.cache.load(prepared.document_id))
        engine.preload(receiver.intact)

        terminal = None
        streaming = False

        def execute(effects) -> None:
            # `receiver` is rebound on a NoCaching stall; the closure
            # reads the shared cell, so it always sees the live one.
            nonlocal terminal, streaming
            for effect in effects:
                if isinstance(effect, RenderPrefix):
                    renderer.on_bytes(receiver.clear_prefix(), self.channel.clock)
                elif isinstance(effect, SendRound):
                    streaming = True
                elif isinstance(effect, TERMINAL_EFFECTS):
                    terminal = effect
                # Stalled is informational; the cache bookkeeping that
                # accompanies it happens at the round boundary below.

        execute(engine.begin())
        round_started = self.channel.clock
        while terminal is None and streaming:
            streaming = False
            for wire in frames:
                delivery = self.channel.send(wire)
                frames_sent += 1
                sequence = receiver.offer(delivery)
                if sequence is not None:
                    execute(engine.handle(FrameDelivered(sequence)))
                elif delivery.lost:
                    execute(engine.handle(FrameLost()))
                else:
                    execute(engine.handle(FrameCorrupt()))
                if terminal is not None:
                    break
            else:
                receiver.reconcile(len(frames))
                self._store(prepared, receiver)
                if self.channel.clock - round_started >= self.round_timeout:
                    terminal = engine.abort()
                    break
                carried = not isinstance(self.cache, NullCache) and bool(
                    self.cache.load(prepared.document_id)
                )
                if not carried:
                    receiver = TransferReceiver(prepared)
                execute(engine.handle(RoundEnded(carried=carried)))
                round_started = self.channel.clock

        document_text: Optional[str] = None
        if isinstance(terminal, Decoded):
            payload = receiver.reconstruct()
            renderer.on_bytes(payload, self.channel.clock)
            self.cache.discard(prepared.document_id)
            document_text = payload.decode("utf-8", errors="replace")
            success, early = True, False
            content = receiver.content_received
        elif isinstance(terminal, EarlyStop):
            # The user hits "stop": enough content to judge.
            if terminal.round > 0:
                self._store(prepared, receiver)
            success, early = True, True
            content = terminal.content
        else:  # Failed
            success, early = False, False
            content = engine.content_received

        result = BrowseResult(
            document_id=manifest.document_id,
            success=success,
            terminated_early=early,
            response_time=self.channel.clock - start,
            rounds=terminal.round,
            rendered=list(renderer.events),
            document_text=document_text,
        )
        bridge.complete(
            success=success,
            terminated_early=early,
            rounds=terminal.round,
            frames=frames_sent,
            content=content,
            response_time=result.response_time,
        )
        return result

    def _store(self, prepared: PreparedDocument, receiver: TransferReceiver) -> None:
        for sequence, payload in receiver.intact.items():
            self.cache.store(prepared.document_id, sequence, payload)


class MobileBrowser:
    """The end-to-end client: resolve, fetch, render."""

    def __init__(
        self,
        broker: ObjectRequestBroker,
        channel: WirelessChannel,
        cache: Optional[PacketCache] = None,
        *,
        settings: Optional[TransferSettings] = None,
    ) -> None:
        self.broker = broker
        self.sequence_manager = SequenceManager(channel, cache=cache, settings=settings)

    def search(self, query_text: str, limit: int = 10):
        """Query the server-side search service (ORB name "search")."""
        return self.broker.invoke("search", "search", query_text, limit=limit)

    def browse(
        self,
        document_id: str,
        *,
        relevance_threshold: Optional[float] = None,
        request: Optional[PrepRequest] = None,
    ) -> BrowseResult:
        """Fetch and incrementally render one document.

        *request* carries the preparation parameters
        (:class:`repro.prep.PrepRequest`; the defaults when ``None``);
        *relevance_threshold* is the paper's F for this fetch,
        overriding the browser's settings.
        """
        prep = request if request is not None else PrepRequest()
        fetch = FetchRequest(
            document_id=document_id,
            query_text=prep.query,
            lod_name=prep.lod,
            gamma=prep.gamma,
            packet_size=None if request is None else prep.packet_size,
            measure=prep.measure,
        )
        manifest, prepared = self.broker.invoke("transmitter", "fetch", fetch)
        renderer = RenderingManager(manifest)
        return self.sequence_manager.run(
            manifest, prepared, renderer, relevance_threshold=relevance_threshold
        )
