"""Tests for the round-based fault-tolerant transfer protocol."""

import random

import pytest

from repro.coding.packets import Packetizer
from repro.prep import DocumentSender, TransferSettings
from repro.transport.cache import PacketCache
from repro.transport.channel import WirelessChannel
from repro.transport.session import transfer_document

DOCUMENT = bytes(range(256)) * 20  # 5120 bytes


def prepare(gamma=1.5, packet_size=256):
    sender = DocumentSender(Packetizer(packet_size=packet_size, redundancy_ratio=gamma))
    return sender.prepare_raw("doc", DOCUMENT)


class TestCleanChannel:
    def test_transfer_without_errors(self):
        prepared = prepare()
        channel = WirelessChannel(alpha=0.0, rng=random.Random(0))
        result = transfer_document(prepared, channel)
        assert result.success
        assert result.rounds == 1
        assert result.payload == DOCUMENT
        # Exactly M frames suffice: transmission stops at the M-th.
        assert result.frames_sent == prepared.m

    def test_response_time_matches_clock(self):
        prepared = prepare()
        channel = WirelessChannel(alpha=0.0, rng=random.Random(0))
        result = transfer_document(prepared, channel)
        frame_bytes = 256 + 4
        expected = prepared.m * channel.transmission_time(frame_bytes)
        assert result.response_time == pytest.approx(expected)


class TestLossyChannel:
    def test_recovers_with_redundancy(self):
        prepared = prepare(gamma=2.0)
        channel = WirelessChannel(alpha=0.2, rng=random.Random(1))
        result = transfer_document(prepared, channel)
        assert result.success
        assert result.payload == DOCUMENT

    def test_caching_beats_nocaching_on_bad_channel(self):
        prepared = prepare(gamma=1.2)
        nocache_channel = WirelessChannel(alpha=0.4, rng=random.Random(2))
        nocache = transfer_document(
            prepared,
            nocache_channel,
            cache=None,
            settings=TransferSettings(max_rounds=300),
        )
        cache_channel = WirelessChannel(alpha=0.4, rng=random.Random(2))
        cached = transfer_document(
            prepared,
            cache_channel,
            cache=PacketCache(),
            settings=TransferSettings(max_rounds=300),
        )
        assert cached.success
        assert cached.response_time < nocache.response_time
        assert cached.rounds < nocache.rounds or not nocache.success

    def test_max_rounds_gives_up(self):
        prepared = prepare(gamma=1.0)  # no redundancy at all
        channel = WirelessChannel(alpha=0.9, rng=random.Random(3))
        result = transfer_document(
            prepared, channel, settings=TransferSettings(max_rounds=3)
        )
        assert not result.success
        assert result.rounds == 3
        assert result.payload is None


class TestEarlyTermination:
    def test_relevance_threshold_stops_early(self):
        prepared = prepare()
        channel = WirelessChannel(alpha=0.0, rng=random.Random(0))
        result = transfer_document(
            prepared, channel, settings=TransferSettings(relevance_threshold=0.25)
        )
        assert result.success
        assert result.terminated_early
        assert result.payload is None
        # Uniform profile: ~25% of M packets needed.
        assert result.frames_sent <= prepared.m // 2

    def test_threshold_zero_sends_nothing(self):
        prepared = prepare()
        channel = WirelessChannel(alpha=0.0, rng=random.Random(0))
        result = transfer_document(
            prepared, channel, settings=TransferSettings(relevance_threshold=0.0)
        )
        assert result.terminated_early
        assert result.frames_sent == 0
        assert result.response_time == 0.0

    def test_threshold_one_downloads_fully(self):
        prepared = prepare()
        channel = WirelessChannel(alpha=0.0, rng=random.Random(0))
        result = transfer_document(
            prepared, channel, settings=TransferSettings(relevance_threshold=1.0)
        )
        assert result.success
        # Reaching content 1.0 needs all M clear packets — equivalent
        # to reconstruction.
        assert result.frames_sent == prepared.m


class TestCachePersistence:
    def test_failed_transfer_populates_cache(self):
        """A transfer interrupted by max_rounds leaves packets that a
        retry can reuse (the paper's retransmission scenario)."""
        prepared = prepare(gamma=1.0)
        cache = PacketCache()
        first_channel = WirelessChannel(alpha=0.5, rng=random.Random(4))
        first = transfer_document(
            prepared,
            first_channel,
            cache=cache,
            settings=TransferSettings(max_rounds=2),
        )
        assert not first.success
        assert cache.packet_count("doc") > 0

    def test_cache_seeds_followup_transfer(self):
        """A retry with the tail already cached stops after receiving
        only the missing prefix packets."""
        prepared = prepare(gamma=1.0)
        cache = PacketCache()
        missing = 5
        for sequence in range(missing, prepared.n):
            cache.store("doc", sequence, prepared.cooked.cooked[sequence])

        channel = WirelessChannel(alpha=0.0, rng=random.Random(5))
        result = transfer_document(prepared, channel, cache=cache)
        assert result.success
        assert result.payload == DOCUMENT
        assert result.frames_sent == missing

    def test_cache_cleared_after_success(self):
        prepared = prepare(gamma=1.5)
        cache = PacketCache()
        channel = WirelessChannel(alpha=0.2, rng=random.Random(6))
        result = transfer_document(prepared, channel, cache=cache)
        assert result.success
        assert cache.packet_count("doc") == 0

    def test_validation(self):
        prepared = prepare()
        channel = WirelessChannel(alpha=0.0)
        with pytest.raises(ValueError):
            transfer_document(
                prepared, channel, settings=TransferSettings(max_rounds=0)
            )
