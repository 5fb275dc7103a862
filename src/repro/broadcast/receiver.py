"""Sans-IO carousel receiver: tune in anywhere, decode from any M.

:class:`CarouselReceiver` is the broadcast counterpart of the unicast
drivers, built on the same :class:`~repro.protocol.TransferEngine`
event vocabulary — ``on_frame_intact`` / ``on_frame_corrupt`` /
``on_frame_lost`` / ``on_round_ended`` — with one carousel *cycle*
playing the role of one unicast *round*.  There is no back channel and
no retransmission protocol: the receiver listens, keeps every intact
packet of its document (the Caching policy, ``carried=True`` at every
cycle boundary), and terminates the moment any M of the N cooked
packets are intact — exactly the §4.2 decode condition, so the
reconstructed bytes are identical to a unicast fetch of the same
document.

The receiver performs no I/O and consumes two feed points:

* :meth:`on_air_index` — an air index was observed (cycle head);
* :meth:`on_frame` — a tagged broadcast frame slot was observed.

A :class:`~repro.channel.ChannelModel` may be attached: every observed
slot (air index included — a drowned index costs another cycle of
tuning latency) then passes through ``decide()`` first, so seeded
iid/Gilbert–Elliott loss shapes what the engine sees, exactly like the
chaos layers of the unicast path.

Until the first air index is heard the receiver is *unsynced*: frame
slots are counted toward tuning latency and discarded, because the
geometry needed to accept them is not yet known.  The air index airs
once per cycle, so sync takes at most one period — the bound the
property suite pins.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.broadcast.airindex import AirIndex, CarouselEntry
from repro.channel import CORRUPT, DISCONNECT, DROP, PASS, ChannelModel
from repro.obs.runtime import OBS
from repro.prep.reconstruct import parse_frame, reconstruct_payload
from repro.protocol import (
    DEFAULT_MAX_ROUNDS,
    Decoded,
    EarlyStop,
    Effect,
    TelemetryBridge,
    TransferEngine,
)


class CarouselReceiver:
    """Collect one document's packets off a shared broadcast carousel.

    Parameters
    ----------
    document_id:
        The document to collect; other tags are observed (for latency
        accounting and the channel process) but never fed to the engine.
    relevance_threshold:
        The paper's F — early-stop once the air-index content profile
        says enough usable content is intact.  Requires the index to
        carry a profile.
    max_cycles:
        Give up after this many cycle boundaries short of M intact
        packets (the engine's retransmission bound, one cycle = one
        round).
    channel:
        Optional seeded :class:`ChannelModel` applied to every observed
        slot.  ``None`` observes a clean channel (the TCP subscription
        path — loss there is the chaos proxy's job).
    bridge:
        Optional :class:`TelemetryBridge` for protocol trace events.
    """

    def __init__(
        self,
        document_id: str,
        *,
        relevance_threshold: Optional[float] = None,
        max_cycles: int = DEFAULT_MAX_ROUNDS,
        channel: Optional[ChannelModel] = None,
        bridge: Optional[TelemetryBridge] = None,
    ) -> None:
        self.document_id = document_id
        self.relevance_threshold = relevance_threshold
        self.max_cycles = max_cycles
        self.channel = channel
        self._bridge = bridge
        self._engine: Optional[TransferEngine] = None
        self._entry: Optional[CarouselEntry] = None
        self._intact: Dict[int, bytes] = {}
        self._terminal: Optional[Effect] = None
        #: True when the carousel's air index does not list the document.
        self.absent = False
        #: Slots observed since tune-in (frames + air indexes, any tag).
        self.slots_seen = 0
        #: Slots observed before the first air index was heard.
        self.slots_before_sync = 0
        #: Cycle boundaries observed after sync.
        self.cycles_seen = 0
        #: Frame-slot verdicts for this document's tag.
        self.frames_intact = 0
        self.frames_corrupt = 0
        self.frames_lost = 0

    # -- state -------------------------------------------------------------

    @property
    def synced(self) -> bool:
        """True once an air index has been heard (geometry known)."""
        return self._entry is not None

    @property
    def entry(self) -> Optional[CarouselEntry]:
        return self._entry

    @property
    def finished(self) -> Optional[Effect]:
        return self._terminal

    @property
    def decoded(self) -> bool:
        return isinstance(self._terminal, Decoded)

    @property
    def intact_count(self) -> int:
        return len(self._intact)

    @property
    def content_received(self) -> float:
        return self._engine.content_received if self._engine is not None else 0.0

    # -- feed points --------------------------------------------------------

    def on_air_index(self, index: AirIndex) -> Optional[Effect]:
        """An air index slot was observed (the head of a cycle)."""
        if self._terminal is not None:
            return self._terminal
        self.slots_seen += 1
        if self.channel is not None and self.channel.decide() is not PASS:
            # The index itself drowned: another period of latency
            # (unsynced) or a silent cycle boundary (synced).
            if self._entry is None:
                self.slots_before_sync += 1
            return None
        entry = index.entry_for(self.document_id)
        if self._entry is None:
            if entry is None:
                self.absent = True
                return None
            return self._sync(entry)
        old = self._entry
        if entry is None or (entry.m, entry.n, entry.packet_size) != (
            old.m, old.n, old.packet_size
        ):
            # The carousel dropped or re-cooked the document under us;
            # collected packets no longer compose.  Give up cleanly.
            return self._finish(self._engine.abort())
        self._entry = entry
        self.cycles_seen += 1
        terminal = self._engine.on_round_ended(carried=True)
        if terminal is not None:
            return self._finish(terminal)
        return None

    def on_frame(self, tag: int, frame: bytes) -> Optional[Effect]:
        """A tagged frame slot was observed on the shared stream."""
        if self._terminal is not None:
            return self._terminal
        self.slots_seen += 1
        if self._entry is None:
            # Unsynced: the geometry is unknown, the slot only costs
            # tuning latency.  The channel still runs (the radio is
            # on), keeping seeded verdict schedules aligned.
            self.slots_before_sync += 1
            if self.channel is not None:
                self.channel.decide()
            return None
        verdict = PASS if self.channel is None else self.channel.decide()
        if tag != self._entry.tag:
            return None
        engine = self._engine
        assert engine is not None
        if verdict is DROP or verdict is DISCONNECT:
            self.frames_lost += 1
            terminal = engine.on_frame_lost()
        elif verdict is CORRUPT:
            self.frames_corrupt += 1
            terminal = engine.on_frame_corrupt()
        else:
            decoded = parse_frame(frame)
            if (
                decoded.intact
                and 0 <= decoded.sequence < self._entry.n
                and len(decoded.payload) == self._entry.packet_size
            ):
                self.frames_intact += 1
                if decoded.sequence not in self._intact:
                    self._intact[decoded.sequence] = decoded.payload
                terminal = engine.on_frame_intact(decoded.sequence)
            else:
                self.frames_corrupt += 1
                terminal = engine.on_frame_corrupt()
        if terminal is not None:
            return self._finish(terminal)
        return None

    def abort(self) -> Effect:
        """Driver-initiated give-up (timeout, shutdown)."""
        if self._terminal is not None:
            return self._terminal
        if self._engine is None:
            # Never synced: synthesize a minimal engine verdict.
            self._engine = TransferEngine(1, 1, document_id=self.document_id)
            self._engine.start()
        return self._finish(self._engine.abort())

    # -- results -----------------------------------------------------------

    def payload(self) -> bytes:
        """The reconstructed document; byte-identical to unicast.

        Only valid once :attr:`decoded`; raises ``RuntimeError``
        otherwise.
        """
        if not self.decoded:
            raise RuntimeError("payload() before the document decoded")
        entry = self._entry
        assert entry is not None
        return reconstruct_payload(
            entry.m,
            entry.n,
            entry.original_size,
            self._intact,
            systematic=entry.systematic,
        )

    # -- internals ---------------------------------------------------------

    def _sync(self, entry: CarouselEntry) -> Optional[Effect]:
        # Stay unsynced until the entry's geometry builds an engine: a
        # malformed index must not leave a half-synced receiver behind.
        profile = list(entry.profile) if entry.profile else None
        if self.relevance_threshold is not None and profile is None:
            raise ValueError(
                "relevance termination requires an air-index content profile"
            )
        self._engine = TransferEngine(
            entry.m,
            entry.n,
            content_profile=profile,
            caching=True,
            relevance_threshold=self.relevance_threshold,
            max_rounds=self.max_cycles,
            document_id=self.document_id,
            bridge=self._bridge,
        )
        self._entry = entry
        terminal = self._engine.start()
        if terminal is not None:
            return self._finish(terminal)
        return None

    def _finish(self, terminal: Effect) -> Effect:
        self._terminal = terminal
        if OBS.enabled:
            outcome = (
                "decoded"
                if isinstance(terminal, Decoded)
                else "early_stop" if isinstance(terminal, EarlyStop) else "failed"
            )
            OBS.metrics.counter(
                "broadcast.receiver.finished", "carousel receptions finished"
            ).labels(outcome=outcome).inc()
            OBS.metrics.counter(
                "broadcast.receiver.slots", "slots observed by finished receivers"
            ).inc(self.slots_seen)
            OBS.metrics.counter(
                "broadcast.receiver.tuning_slots",
                "slots spent unsynced before the first air index",
            ).inc(self.slots_before_sync)
        return terminal

    def __repr__(self) -> str:
        state = (
            f"terminal={type(self._terminal).__name__}"
            if self._terminal is not None
            else ("synced" if self.synced else "tuning")
        )
        return (
            f"CarouselReceiver({self.document_id!r}, intact={len(self._intact)}, "
            f"{state})"
        )
