"""Client-side receiver state for one document transfer.

Tracks intact cooked packets (CRC-verified), accumulates the received
information content from clear-text packets, detects when
reconstruction becomes possible, and renders the incrementally usable
clear-text prefix — the receiving half of the paper's §4.2 protocol.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.coding.packets import decode_frame
from repro.obs.runtime import OBS
from repro.obs.trace import FRAME_CORRUPT
from repro.prep import PreparedDocument
from repro.transport.channel import Delivery


class TransferReceiver:
    """Receiver for one document's cooked-packet stream.

    The receiver never inspects channel ground truth: corruption is
    detected via the CRC in each frame, and missing packets via gaps
    in the FIFO sequence numbers.
    """

    def __init__(self, prepared: PreparedDocument, incremental: bool = False) -> None:
        self._prepared = prepared
        self.intact: Dict[int, bytes] = {}
        self.corrupted_seen = 0
        self.lost_detected = 0
        self._content = 0.0
        self._highest_sequence = -1
        # Corrupt frames received since the highest intact sequence: on
        # a FIFO channel they occupy positions inside the next gap, so
        # they must not be double-counted as losses.
        self._corrupt_since_highest = 0
        # Optional online Gaussian elimination: spreads the decode cost
        # across arrivals so reconstruction at the M-th packet is a
        # back-substitution instead of a full matrix inversion.  Both
        # this and the batch reassemble() path run on the codec's
        # GF(2^8) kernel backend (repro.coding.backend).
        self._decoder = None
        if incremental:
            from repro.coding.stream import IncrementalDecoder

            self._decoder = IncrementalDecoder(prepared.cooked.codec)

    # -- feeding ----------------------------------------------------------

    def preload(self, packets: Dict[int, bytes]) -> None:
        """Seed the receiver with cached packets from earlier rounds."""
        for sequence, payload in packets.items():
            self._accept(sequence, payload)

    def offer(self, delivery: Delivery) -> Optional[int]:
        """Process one channel delivery.

        Returns the frame's sequence number when it arrived intact
        (even if already held), ``None`` for losses and CRC failures —
        letting a protocol driver translate deliveries into typed
        engine events without re-decoding the wire bytes.
        """
        if delivery.lost or delivery.wire is None:
            return None  # loss is detected later via the sequence gap
        frame = decode_frame(delivery.wire)
        if not frame.intact:
            self.corrupted_seen += 1
            self._corrupt_since_highest += 1
            if OBS.enabled:
                OBS.metrics.counter(
                    "receiver.crc_failures", "frames rejected by CRC"
                ).inc()
                OBS.trace.emit(FRAME_CORRUPT, sequence=frame.sequence)
            return None
        if frame.sequence > self._highest_sequence + 1:
            # FIFO channel: a jump in sequence numbers reveals losses —
            # minus the corrupt frames known to sit inside the gap.
            gap = frame.sequence - self._highest_sequence - 1
            self.lost_detected += max(0, gap - self._corrupt_since_highest)
        if frame.sequence > self._highest_sequence:
            self._highest_sequence = frame.sequence
            self._corrupt_since_highest = 0
        self._accept(frame.sequence, frame.payload)
        return frame.sequence

    def reconcile(self, n_sent: int) -> int:
        """Close the loss ledger at the end of a round of *n_sent* frames.

        Frames lost *after* the highest intact sequence leave no gap
        for :meth:`offer` to observe; once the round is over the
        receiver knows all ``n_sent`` frames were streamed and can
        attribute the trailing silence.  Returns the number of newly
        detected losses and resets the per-round sequence tracking
        (each round restarts numbering at 0).
        """
        trailing = (n_sent - 1) - self._highest_sequence - self._corrupt_since_highest
        newly = max(0, trailing)
        self.lost_detected += newly
        self._highest_sequence = -1
        self._corrupt_since_highest = 0
        return newly

    def _accept(self, sequence: int, payload: bytes) -> None:
        if sequence in self.intact:
            return
        self.intact[sequence] = payload
        if self._decoder is not None:
            self._decoder.add(sequence, payload)
        if sequence < self._prepared.m:
            self._content += self._prepared.content_profile[sequence]

    # -- state ----------------------------------------------------------------

    @property
    def intact_count(self) -> int:
        return len(self.intact)

    @property
    def content_received(self) -> float:
        """Information content usable *now*.

        Clear-text packets contribute their profile share as they
        arrive; once reconstruction is possible the whole document's
        content (the sum of the profile) is available.
        """
        if self.can_reconstruct():
            return sum(self._prepared.content_profile)
        return self._content

    def can_reconstruct(self) -> bool:
        return len(self.intact) >= self._prepared.m

    def missing_clear_packets(self) -> Set[int]:
        """Clear-text sequences not yet held (selective-repeat support)."""
        return {
            sequence
            for sequence in range(self._prepared.m)
            if sequence not in self.intact
        }

    # -- output -----------------------------------------------------------------

    def reconstruct(self) -> bytes:
        """The full document; raises when fewer than M packets are held."""
        if self._decoder is not None and self._decoder.complete:
            return self._decoder.solve_document(self._prepared.cooked.original_size)
        return self._prepared.cooked.reassemble(self.intact)

    def clear_prefix(self) -> bytes:
        """The immediately renderable clear-text prefix (may be empty)."""
        return self._prepared.cooked.clear_prefix(self.intact)
