"""Content-driven prefetching over idle bandwidth (paper §6).

The paper's future work proposes "intelligent prefetching based on
information content and user-profiling, utilizing the unused wireless
bandwidth being left idle".  The prefetcher ranks candidate documents
by an interest score (e.g. QIC of the document against the user's
profile query), then fills an idle-time budget with the cooked packets
of the best candidates, depositing intact packets into the shared
:class:`~repro.transport.cache.PacketCache`.

A later explicit request for a prefetched document starts with those
packets already cached, so it needs fewer — often zero — air packets.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence

from repro.prep import PreparedDocument
from repro.transport.cache import PacketCache
from repro.transport.channel import WirelessChannel
from repro.transport.receiver import TransferReceiver
from repro.util.validation import check_positive


class PrefetchCandidate(NamedTuple):
    """A document the prefetcher may fetch ahead of demand."""

    prepared: PreparedDocument
    score: float  # interest score; higher fetches earlier


class PrefetchReport(NamedTuple):
    """What one idle window accomplished."""

    fetched: List[str]        # document ids fully cached (reconstructable)
    partial: List[str]        # document ids partially cached
    air_time_used: float      # seconds of idle bandwidth consumed
    frames_sent: int


class Prefetcher:
    """Greedy best-score-first prefetching into a packet cache."""

    def __init__(self, cache: PacketCache) -> None:
        self.cache = cache

    def run_idle_window(
        self,
        candidates: Sequence[PrefetchCandidate],
        channel: WirelessChannel,
        idle_seconds: float,
    ) -> PrefetchReport:
        """Spend up to *idle_seconds* of air time prefetching.

        Documents are fetched in descending score order.  A document
        stops consuming the window as soon as it is reconstructable
        (M intact packets cached); the window closes mid-document if
        the budget runs out, leaving a useful partial cache entry.
        """
        check_positive(idle_seconds, "idle_seconds")
        deadline = channel.clock + idle_seconds
        fetched: List[str] = []
        partial: List[str] = []
        frames_sent = 0
        start_clock = channel.clock

        ordered = sorted(candidates, key=lambda c: -c.score)
        for candidate in ordered:
            prepared = candidate.prepared
            receiver = TransferReceiver(prepared)
            receiver.preload(self.cache.load(prepared.document_id))
            if receiver.can_reconstruct():
                fetched.append(prepared.document_id)
                continue

            exhausted = False
            for wire in prepared.frames():
                if channel.clock + channel.transmission_time(len(wire)) > deadline:
                    exhausted = True
                    break
                delivery = channel.send(wire)
                frames_sent += 1
                receiver.offer(delivery)
                if receiver.can_reconstruct():
                    break

            for sequence, payload in receiver.intact.items():
                self.cache.store(prepared.document_id, sequence, payload)

            if receiver.can_reconstruct():
                fetched.append(prepared.document_id)
            elif receiver.intact:
                partial.append(prepared.document_id)
            if exhausted:
                break

        return PrefetchReport(
            fetched=fetched,
            partial=partial,
            air_time_used=channel.clock - start_clock,
            frames_sent=frames_sent,
        )
