"""Tests for outage modeling and resumable transfers."""

import random

import pytest

from repro.coding.packets import Packetizer
from repro.prep import DocumentSender
from repro.transport.cache import NullCache, PacketCache
from repro.transport.disconnect import OutageChannel, resumable_transfer

DOCUMENT = b"r" * 5120


def prepare(gamma=1.5):
    sender = DocumentSender(Packetizer(packet_size=256, redundancy_ratio=gamma))
    return sender.prepare_raw("doc", DOCUMENT)


class TestOutageChannel:
    def test_frames_lost_inside_window(self):
        channel = OutageChannel(outages=[(0.0, 100.0)], alpha=0.0)
        delivery = channel.send(b"x" * 100)
        assert delivery.lost
        assert channel.frames_lost == 1

    def test_frames_flow_outside_window(self):
        channel = OutageChannel(
            outages=[(100.0, 200.0)], alpha=0.0, rng=random.Random(0)
        )
        delivery = channel.send(b"x" * 100)
        assert not delivery.lost and not delivery.corrupted

    def test_in_outage_query(self):
        channel = OutageChannel(outages=[(1.0, 2.0)])
        assert not channel.in_outage(0.5)
        assert channel.in_outage(1.5)
        assert not channel.in_outage(2.0)  # half-open interval

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            OutageChannel(outages=[(2.0, 1.0)])

    def test_corruption_still_applies_outside(self):
        channel = OutageChannel(outages=[], alpha=1.0, rng=random.Random(1))
        assert channel.send(b"y" * 50).corrupted


class TestResumableTransfer:
    def test_clean_channel_single_attempt(self):
        channel = OutageChannel(outages=[], alpha=0.0, rng=random.Random(0))
        result = resumable_transfer(prepare(), channel)
        assert result.success
        assert result.attempts == 1
        assert result.payload == DOCUMENT

    def test_survives_outage_with_cache(self):
        """An outage swallowing the middle of the transfer: attempts
        before and after the gap combine through the cache."""
        prepared = prepare(gamma=1.2)
        # Transfer needs ~20 packets * 0.108s ≈ 2.2s; outage 1s..60s
        # kills most of the early attempts.
        channel = OutageChannel(
            outages=[(1.0, 60.0)], alpha=0.05, rng=random.Random(1)
        )
        result = resumable_transfer(
            prepared, channel, max_attempts=30, rounds_per_attempt=1
        )
        assert result.success
        assert result.attempts > 1
        assert result.payload == DOCUMENT
        # The pre-outage packets were banked: the winning attempt needed
        # fewer frames than a cold start would.
        assert result.attempt_results[-1].frames_sent < prepared.n

    def test_cache_makes_progress_monotone(self):
        prepared = prepare(gamma=1.0)
        cache = PacketCache()
        channel = OutageChannel(outages=[], alpha=0.5, rng=random.Random(2))
        counts = []
        for _ in range(3):
            resumable_transfer(
                prepared, channel, cache=cache, max_attempts=1, rounds_per_attempt=1
            )
            counts.append(cache.packet_count("doc"))
            if counts[-1] == 0:
                break  # success cleared the cache
        nonzero = [c for c in counts if c > 0]
        assert nonzero == sorted(nonzero)

    def test_null_cache_no_progress(self):
        """Without the cache, attempts cannot combine: each one starts
        from zero (the NoCaching pathology across disconnections)."""
        prepared = prepare(gamma=1.0)
        channel = OutageChannel(outages=[], alpha=0.6, rng=random.Random(3))
        result = resumable_transfer(
            prepared,
            channel,
            cache=NullCache(),
            max_attempts=4,
            rounds_per_attempt=1,
        )
        assert not result.success

    def test_gives_up_cleanly(self):
        prepared = prepare(gamma=1.0)
        channel = OutageChannel(outages=[(0.0, 10_000.0)], alpha=0.0)
        result = resumable_transfer(prepared, channel, max_attempts=2)
        assert not result.success
        assert result.attempts == 2
        assert len(result.attempt_results) == 2

    def test_relevance_threshold_respected(self):
        prepared = prepare()
        channel = OutageChannel(outages=[], alpha=0.0, rng=random.Random(4))
        result = resumable_transfer(
            prepared, channel, relevance_threshold=0.25
        )
        assert result.success
        assert result.attempt_results[0].terminated_early

    def test_validation(self):
        channel = OutageChannel(outages=[])
        with pytest.raises(ValueError):
            resumable_transfer(prepare(), channel, max_attempts=0)
