"""The bursty simulated link: ModelChannel driven by a Gilbert–Elliott model.

The model and the channel share one ``random.Random``, so the chain's
two draws per frame and the channel's byte garbling interleave on a
single stream — the same schedule every seeded bursty experiment in
the repo replays.
"""

import random

import pytest

from repro.channel import GilbertElliottModel
from repro.transport.channel import ModelChannel


def bursty_channel(rng=None, **model_kwargs):
    """A ModelChannel whose Gilbert–Elliott model shares the channel RNG."""
    rng = rng if rng is not None else random.Random(0)
    return ModelChannel(GilbertElliottModel(rng=rng, **model_kwargs), rng=rng)


def matched_channel(alpha, rng=None, **kwargs):
    """:func:`bursty_channel` with transitions matched to *alpha*."""
    rng = rng if rng is not None else random.Random(0)
    model = GilbertElliottModel.matched_to_alpha(alpha, rng=rng, **kwargs)
    return ModelChannel(model, rng=rng)


class TestStationaryBehaviour:
    def test_stationary_alpha_formula(self):
        channel = bursty_channel(
            good_alpha=0.0, bad_alpha=1.0, good_to_bad=0.1, bad_to_good=0.4
        )
        assert channel.model.stationary_bad_probability == pytest.approx(0.2)
        assert channel.alpha == pytest.approx(0.2)

    def test_observed_rate_converges(self):
        channel = bursty_channel(
            good_alpha=0.02,
            bad_alpha=0.95,
            good_to_bad=0.05,
            bad_to_good=0.3,
            rng=random.Random(0),
        )
        for _ in range(30_000):
            channel.send(b"x" * 50)
        assert channel.observed_corruption_rate() == pytest.approx(
            channel.alpha, abs=0.02
        )

    def test_bad_state_fraction_converges(self):
        channel = bursty_channel(
            good_to_bad=0.1, bad_to_good=0.4, rng=random.Random(1)
        )
        for _ in range(30_000):
            channel.send(b"x")
        fraction = channel.model.bad_frames / channel.frames_sent
        assert fraction == pytest.approx(
            channel.model.stationary_bad_probability, abs=0.02
        )


class TestBurstiness:
    def test_errors_cluster(self):
        """Runs of consecutive corruptions are longer than i.i.d."""
        channel = bursty_channel(
            good_alpha=0.0,
            bad_alpha=1.0,
            good_to_bad=0.02,
            bad_to_good=0.2,
            rng=random.Random(2),
        )
        runs = []
        current = 0
        for _ in range(20_000):
            if channel.send(b"x").corrupted:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        mean_run = sum(runs) / len(runs)
        # i.i.d. at the same stationary alpha (~0.09) would give runs
        # of mean 1/(1-alpha) ≈ 1.1; the burst channel gives ≈ 5.
        assert mean_run > 3.0

    def test_expected_burst_length(self):
        channel = bursty_channel(bad_to_good=0.25)
        assert channel.model.expected_burst_length() == pytest.approx(4.0)


class TestMatching:
    def test_matched_alpha(self):
        channel = matched_channel(0.3, burst_length=5.0, rng=random.Random(3))
        assert channel.alpha == pytest.approx(0.3, abs=1e-9)
        for _ in range(30_000):
            channel.send(b"x")
        assert channel.observed_corruption_rate() == pytest.approx(0.3, abs=0.02)

    def test_matched_burst_length(self):
        channel = matched_channel(0.3, burst_length=8.0)
        assert channel.model.expected_burst_length() == pytest.approx(8.0)

    def test_alpha_out_of_achievable_range(self):
        with pytest.raises(ValueError):
            matched_channel(0.01, good_alpha=0.02)
        with pytest.raises(ValueError):
            matched_channel(0.99, bad_alpha=0.95)

    def test_too_short_burst_rejected(self):
        with pytest.raises(ValueError):
            matched_channel(0.9, burst_length=1.0, bad_alpha=0.95, good_alpha=0.0)

    def test_shared_rng_draw_order_is_pinned(self):
        # Corrupted-frame indices of the first 200 frames, recorded from
        # the original bursty channel class this ModelChannel form
        # replaced; any change to the shared draw order moves them.
        channel = matched_channel(0.2, burst_length=5.0, rng=random.Random(2024))
        corrupted = [
            index for index in range(200) if channel.send(bytes(64)).corrupted
        ]
        assert corrupted == [
            21, 46, 47, 48, 49, 50, 51, 60, 118, 119, 120, 121, 122, 123,
            124, 127, 128, 130, 131, 144, 149, 169, 189, 190, 191, 192,
            193, 194, 195, 196, 197, 198, 199,
        ]


class TestProtocolInteraction:
    def test_transfer_still_recovers(self):
        from repro.coding.packets import Packetizer
        from repro.prep import DocumentSender, TransferSettings
        from repro.transport.cache import PacketCache
        from repro.transport.session import transfer_document

        payload = b"q" * 5120
        sender = DocumentSender(Packetizer(packet_size=256, redundancy_ratio=2.0))
        prepared = sender.prepare_raw("doc", payload)
        channel = matched_channel(0.2, burst_length=6.0, rng=random.Random(4))
        result = transfer_document(
            prepared,
            channel,
            cache=PacketCache(),
            settings=TransferSettings(max_rounds=100),
        )
        assert result.success
        assert result.payload == payload

    def test_validation(self):
        with pytest.raises(ValueError):
            bursty_channel(good_to_bad=0.0, bad_to_good=0.0)
        with pytest.raises(ValueError):
            bursty_channel(bad_alpha=1.5)
