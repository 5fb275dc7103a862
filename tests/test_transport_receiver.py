"""Focused tests for TransferReceiver, including incremental decoding."""

import random

import pytest

from repro.coding.packets import Packetizer, encode_frame
from repro.prep import DocumentSender
from repro.transport.channel import Delivery, WirelessChannel
from repro.transport.receiver import TransferReceiver

DOCUMENT = bytes(range(256)) * 8  # 2048 bytes


def prepare(gamma=1.5, packet_size=256):
    sender = DocumentSender(Packetizer(packet_size=packet_size, redundancy_ratio=gamma))
    return sender.prepare_raw("doc", DOCUMENT)


def deliver(receiver, prepared, sequence, corrupt=False):
    wire = encode_frame(sequence, prepared.cooked.cooked[sequence])
    if corrupt:
        wire = wire[:-1] + bytes([wire[-1] ^ 0xFF])
    receiver.offer(Delivery(time=0.0, wire=wire, corrupted=corrupt, lost=False))


class TestCrcDiscipline:
    def test_corrupted_frames_counted_not_stored(self):
        prepared = prepare()
        receiver = TransferReceiver(prepared)
        deliver(receiver, prepared, 0, corrupt=True)
        assert receiver.corrupted_seen == 1
        assert receiver.intact_count == 0

    def test_lost_frames_detected_by_gap(self):
        prepared = prepare()
        receiver = TransferReceiver(prepared)
        deliver(receiver, prepared, 0)
        deliver(receiver, prepared, 3)  # 1 and 2 never arrived
        assert receiver.lost_detected == 2

    def test_duplicates_idempotent(self):
        prepared = prepare()
        receiver = TransferReceiver(prepared)
        deliver(receiver, prepared, 0)
        deliver(receiver, prepared, 0)
        assert receiver.intact_count == 1
        assert receiver.content_received == pytest.approx(
            prepared.content_profile[0]
        )

    def test_offer_reports_intact_sequence(self):
        prepared = prepare()
        receiver = TransferReceiver(prepared)
        wire = encode_frame(2, prepared.cooked.cooked[2])
        delivery = Delivery(time=0.0, wire=wire, corrupted=False, lost=False)
        assert receiver.offer(delivery) == 2
        assert receiver.offer(delivery) == 2  # duplicates still report
        bad = wire[:-1] + bytes([wire[-1] ^ 0xFF])
        assert (
            receiver.offer(Delivery(time=0.0, wire=bad, corrupted=True, lost=False))
            is None
        )
        assert (
            receiver.offer(Delivery(time=0.0, wire=None, corrupted=False, lost=True))
            is None
        )

    def test_corrupt_frames_not_double_counted_as_lost(self):
        # FIFO: the corrupt frame occupies a slot inside the gap, so
        # only the genuinely absent frame counts as lost.
        prepared = prepare()
        receiver = TransferReceiver(prepared)
        deliver(receiver, prepared, 0)
        deliver(receiver, prepared, 1, corrupt=True)  # position 1: damaged
        deliver(receiver, prepared, 3)                # position 2 truly lost
        assert receiver.corrupted_seen == 1
        assert receiver.lost_detected == 1


class TestReconcile:
    def test_trailing_losses_closed_at_round_end(self):
        """Frames lost after the highest sequence leave no gap; the
        round-end reconcile attributes them (the regression this API
        exists for)."""
        prepared = prepare()
        receiver = TransferReceiver(prepared)
        deliver(receiver, prepared, 0)
        deliver(receiver, prepared, 1)
        # Frames 2 .. n-1 all lost: offer() alone never notices.
        assert receiver.lost_detected == 0
        newly = receiver.reconcile(prepared.n)
        assert newly == prepared.n - 2
        assert receiver.lost_detected == prepared.n - 2

    def test_reconcile_counts_trailing_corrupt_separately(self):
        prepared = prepare()
        receiver = TransferReceiver(prepared)
        deliver(receiver, prepared, 0)
        deliver(receiver, prepared, 1, corrupt=True)  # arrived, damaged
        # Everything after position 1 lost: n frames minus the intact
        # one at 0 and the corrupt (but delivered) one at 1.
        newly = receiver.reconcile(prepared.n)
        assert newly == prepared.n - 2
        assert receiver.corrupted_seen == 1

    def test_full_round_reconciles_to_zero(self):
        prepared = prepare()
        receiver = TransferReceiver(prepared)
        for sequence in range(prepared.n):
            deliver(receiver, prepared, sequence)
        assert receiver.reconcile(prepared.n) == 0
        assert receiver.lost_detected == 0

    def test_reconcile_resets_per_round_tracking(self):
        # Round numbering restarts at 0 each round: without the reset a
        # second-round gap at the stream head would go unnoticed.
        prepared = prepare()
        receiver = TransferReceiver(prepared)
        deliver(receiver, prepared, prepared.n - 1)
        receiver.reconcile(prepared.n)
        lost_after_round1 = receiver.lost_detected
        assert lost_after_round1 == prepared.n - 1
        deliver(receiver, prepared, 1)  # round 2: frame 0 lost
        assert receiver.lost_detected == lost_after_round1 + 1


class TestContentAccrual:
    def test_clear_packets_accrue(self):
        prepared = prepare()
        receiver = TransferReceiver(prepared)
        deliver(receiver, prepared, 0)
        deliver(receiver, prepared, 1)
        expected = prepared.content_profile[0] + prepared.content_profile[1]
        assert receiver.content_received == pytest.approx(expected)

    def test_redundancy_packets_do_not_accrue(self):
        prepared = prepare()
        receiver = TransferReceiver(prepared)
        deliver(receiver, prepared, prepared.m)  # first redundancy packet
        assert receiver.content_received == 0.0

    def test_reconstruction_yields_full_content(self):
        prepared = prepare()
        receiver = TransferReceiver(prepared)
        for sequence in range(prepared.m):
            deliver(receiver, prepared, sequence)
        assert receiver.can_reconstruct()
        assert receiver.content_received == pytest.approx(1.0)

    def test_missing_clear_packets(self):
        prepared = prepare()
        receiver = TransferReceiver(prepared)
        deliver(receiver, prepared, 0)
        missing = receiver.missing_clear_packets()
        assert 0 not in missing
        assert len(missing) == prepared.m - 1


class TestIncrementalMode:
    @pytest.mark.parametrize("incremental", [False, True])
    def test_reconstruction_equivalent(self, incremental):
        prepared = prepare()
        receiver = TransferReceiver(prepared, incremental=incremental)
        rng = random.Random(0)
        order = rng.sample(range(prepared.n), prepared.m)
        for sequence in order:
            deliver(receiver, prepared, sequence)
        assert receiver.can_reconstruct()
        assert receiver.reconstruct() == DOCUMENT

    def test_incremental_with_losses_and_duplicates(self):
        prepared = prepare(gamma=2.0)
        receiver = TransferReceiver(prepared, incremental=True)
        rng = random.Random(1)
        sequences = list(range(prepared.n)) + [0, 1, 2]
        rng.shuffle(sequences)
        for sequence in sequences:
            deliver(receiver, prepared, sequence, corrupt=rng.random() < 0.3)
            if receiver.can_reconstruct():
                break
        if receiver.can_reconstruct():
            assert receiver.reconstruct() == DOCUMENT

    def test_preload_feeds_decoder(self):
        prepared = prepare()
        receiver = TransferReceiver(prepared, incremental=True)
        receiver.preload(
            {i: prepared.cooked.cooked[i] for i in range(prepared.m)}
        )
        assert receiver.can_reconstruct()
        assert receiver.reconstruct() == DOCUMENT


class TestClearPrefix:
    def test_prefix_grows_contiguously(self):
        prepared = prepare(packet_size=128)
        receiver = TransferReceiver(prepared)
        deliver(receiver, prepared, 1)
        assert receiver.clear_prefix() == b""  # gap at 0
        deliver(receiver, prepared, 0)
        assert receiver.clear_prefix() == DOCUMENT[:256]
