"""Unit tests for the unified channel-model core (``repro.channel``).

Covers the verdict vocabulary and counters, the i.i.d. model's legacy
draw order, the single Gilbert–Elliott stationary-math implementation
(50-seed matched-α property test), trace replay, the spec parser, and
the recording wrapper the parity suite uses.
"""

import json
import random

import pytest

from repro.channel import (
    CORRUPT,
    DISCONNECT,
    DROP,
    PASS,
    VERDICTS,
    ChannelModel,
    GilbertElliottModel,
    IIDModel,
    RecordingModel,
    TraceModel,
    TraceSegment,
    matched_transitions,
    parse_model_spec,
    stationary_alpha,
    stationary_bad_probability,
)


# -- base vocabulary and counters -----------------------------------------


def test_verdict_vocabulary_is_closed():
    assert set(VERDICTS) == {PASS, CORRUPT, DROP, DISCONNECT}
    assert len(VERDICTS) == 4


def test_counters_partition_frames():
    model = IIDModel(
        rng=random.Random(3), drop=0.2, corrupt=0.2, disconnect=0.05
    )
    for _ in range(500):
        assert model.decide() in VERDICTS
    counts = model.counters()
    assert counts["frames"] == 500
    assert (
        counts["passed"] + counts["dropped"] + counts["corrupted"]
        + counts["disconnects"]
        == 500
    )
    assert counts["dropped"] > 0 and counts["corrupted"] > 0
    assert counts["disconnects"] > 0
    model.reset_counters()
    assert model.frames == 0


def test_transmission_time_prefers_model_bandwidth():
    model = IIDModel(bandwidth_kbps=9.6)
    assert model.transmission_time(1200) == pytest.approx(1.0)
    plain = IIDModel()
    assert plain.transmission_time(1200, 9.6) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="no bandwidth"):
        plain.transmission_time(1200)


# -- i.i.d. model: legacy draw order --------------------------------------


def _legacy_fault_plan_verdicts(seed, drop, corrupt, disconnect, outage, n):
    """The original i.i.d. fault-schedule draw discipline, replayed inline."""
    rng = random.Random(seed)
    outage_left = 0
    verdicts = []
    for _ in range(n):
        if outage_left > 0:
            outage_left -= 1
            verdicts.append(DROP)
            continue
        if disconnect > 0 and rng.random() < disconnect:
            outage_left = max(0, outage - 1)
            verdicts.append(DISCONNECT)
            continue
        if drop > 0 and rng.random() < drop:
            verdicts.append(DROP)
            continue
        if corrupt > 0 and rng.random() < corrupt:
            verdicts.append(CORRUPT)
            continue
        verdicts.append(PASS)
    return verdicts


@pytest.mark.parametrize("seed", [0, 7, 42, 20000806])
def test_iid_model_replays_the_legacy_draw_order(seed):
    model = IIDModel(
        rng=random.Random(seed),
        drop=0.15,
        corrupt=0.25,
        disconnect=0.03,
        outage_events=4,
    )
    expected = _legacy_fault_plan_verdicts(seed, 0.15, 0.25, 0.03, 4, 400)
    assert [model.decide() for _ in range(400)] == expected


def test_iid_outage_window_swallows_following_frames():
    model = IIDModel(rng=random.Random(0), disconnect=1.0, outage_events=3)
    assert model.decide() == DISCONNECT
    assert model.disconnected
    assert model.decide() == DROP
    assert model.decide() == DROP
    assert not model.disconnected
    assert model.decide() == DISCONNECT  # window over: next draw severs again


def test_iid_always_draw_corrupt_burns_a_draw_at_alpha_zero():
    # The simulated WirelessChannel burns one corruption draw per
    # undropped frame even at alpha=0; the flag reproduces that.
    burning = IIDModel(rng=random.Random(9), always_draw_corrupt=True)
    plain = IIDModel(rng=random.Random(9))
    for _ in range(10):
        assert burning.decide() == PASS
        assert plain.decide() == PASS
    assert burning.rng.random() != plain.rng.random()


def test_iid_validates_probabilities():
    with pytest.raises(ValueError, match="drop"):
        IIDModel(drop=1.5)
    with pytest.raises(ValueError, match="outage_events"):
        IIDModel(outage_events=-1)


# -- Gilbert–Elliott stationary math --------------------------------------


def test_stationary_bad_probability_is_the_chain_fixpoint():
    assert stationary_bad_probability(0.1, 0.3) == pytest.approx(0.25)
    with pytest.raises(ValueError, match="change state"):
        stationary_bad_probability(0.0, 0.0)


def test_matched_transitions_property_over_50_seeds():
    """matched_transitions inverts stationary_alpha, for any valid mix.

    The de-dup satellite: the transport channel and the model both call
    this one implementation, so it must hold over a broad random sweep
    of (alpha, burst, per-state rates), not just the defaults.
    """
    for seed in range(50):
        rng = random.Random(seed)
        good = rng.uniform(0.0, 0.2)
        bad = rng.uniform(0.5, 1.0)
        alpha = rng.uniform(good + 0.01, bad - 0.01)
        # Long enough bursts keep good_to_bad a probability.
        burst = rng.uniform(2.0, 50.0)
        try:
            g2b, b2g = matched_transitions(
                alpha, burst, good_alpha=good, bad_alpha=bad
            )
        except ValueError:
            # burst too short for this alpha: documented refusal.
            continue
        assert 0.0 < g2b <= 1.0 and 0.0 < b2g <= 1.0
        assert b2g == pytest.approx(1.0 / burst)
        assert stationary_alpha(good, bad, g2b, b2g) == pytest.approx(alpha)


def test_matched_transitions_rejects_out_of_band_alpha():
    with pytest.raises(ValueError, match="strictly between"):
        matched_transitions(0.01, 5.0, good_alpha=0.02, bad_alpha=0.95)
    with pytest.raises(ValueError, match="burst_length"):
        matched_transitions(0.2, 0.5)
    with pytest.raises(ValueError, match="increase it"):
        matched_transitions(0.9, 1.0, good_alpha=0.02, bad_alpha=0.95)


def test_gilbert_model_matches_requested_alpha():
    model = GilbertElliottModel.matched_to_alpha(0.3, 8.0, rng=random.Random(1))
    assert model.stationary_alpha == pytest.approx(0.3)
    assert model.expected_burst_length() == pytest.approx(8.0)


def test_gilbert_model_draws_exactly_twice_per_frame():
    class CountingRandom(random.Random):
        calls = 0

        def random(self):
            self.calls += 1
            return super().random()

    rng = CountingRandom(5)
    model = GilbertElliottModel(rng=rng)
    for _ in range(20):
        model.decide()
    assert rng.calls == 40


def test_gilbert_model_bursts_in_bad_state():
    model = GilbertElliottModel(
        rng=random.Random(2),
        good_alpha=0.0,
        bad_alpha=1.0,
        good_to_bad=0.2,
        bad_to_good=0.2,
    )
    verdicts = [model.decide() for _ in range(2000)]
    assert model.bad_frames == verdicts.count(CORRUPT)
    assert model.bad_frames / 2000 == pytest.approx(0.5, abs=0.1)


# -- traces ----------------------------------------------------------------


def _handoff_trace(repeat=False):
    return TraceModel(
        [
            TraceSegment(frames=3, bandwidth_kbps=19.2),
            TraceSegment(frames=2, outage=True),
            TraceSegment(frames=2, corrupt=1.0, bandwidth_kbps=4.8),
        ],
        rng=random.Random(0),
        repeat=repeat,
    )


def test_trace_replays_segments_in_order():
    model = _handoff_trace()
    assert [model.decide() for _ in range(3)] == [PASS, PASS, PASS]
    assert model.bandwidth_kbps == pytest.approx(19.2)
    assert model.decide() == DISCONNECT  # first frame of the outage
    assert model.disconnected
    assert model.decide() == DROP       # rest of the window swallowed
    # The outage segment has no bandwidth: the last one seen persists.
    assert model.bandwidth_kbps == pytest.approx(19.2)
    assert [model.decide() for _ in range(2)] == [CORRUPT, CORRUPT]
    assert model.bandwidth_kbps == pytest.approx(4.8)
    # No repeat: the final segment persists.
    assert model.decide() == CORRUPT


def test_trace_repeat_wraps_to_the_first_segment():
    model = _handoff_trace(repeat=True)
    first_cycle = [model.decide() for _ in range(7)]
    assert model.segment_index == 0
    assert model.decide() == PASS
    assert model.bandwidth_kbps == pytest.approx(19.2)
    assert first_cycle[3] == DISCONNECT


def test_trailing_outage_drops_without_re_disconnecting():
    model = TraceModel(
        [TraceSegment(frames=1), TraceSegment(frames=2, outage=True)],
        rng=random.Random(0),
    )
    verdicts = [model.decide() for _ in range(10)]
    assert verdicts[0] == PASS
    assert verdicts[1] == DISCONNECT
    assert verdicts[2:] == [DROP] * 8  # a dead link stays dead
    assert model.disconnected


def test_trace_from_dict_validation():
    with pytest.raises(ValueError, match="unknown key"):
        TraceModel.from_dict({"segments": [{"frames": 5, "typo": 1}]})
    with pytest.raises(ValueError, match="frames >= 1"):
        TraceModel.from_dict([{"frames": 0}])
    with pytest.raises(ValueError, match="non-empty"):
        TraceModel.from_dict({"segments": []})
    with pytest.raises(ValueError, match="bandwidth_kbps"):
        TraceModel.from_dict([{"frames": 1, "bandwidth_kbps": -2}])
    bare_list = TraceModel.from_dict([{"frames": 4, "corrupt": 0.5}])
    assert len(bare_list.segments) == 1


def test_trace_from_json_round_trip(tmp_path):
    path = tmp_path / "urban.json"
    path.write_text(
        json.dumps(
            {
                "name": "urban-handoff",
                "repeat": True,
                "segments": [
                    {"frames": 2, "bandwidth_kbps": 19.2},
                    {"frames": 1, "outage": True},
                ],
            }
        ),
        encoding="utf-8",
    )
    model = TraceModel.from_json(str(path), rng=random.Random(4))
    assert model.name == "urban-handoff"
    assert model.repeat
    assert [model.decide() for _ in range(3)] == [PASS, PASS, DISCONNECT]
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="not valid JSON"):
        TraceModel.from_json(str(bad))


# -- spec parsing ----------------------------------------------------------


def test_parse_iid_spec_with_alias_and_bandwidth():
    model = parse_model_spec(
        "iid:drop=0.1,alpha=0.2,disconnect=0.05,outage=3,bandwidth=9.6", seed=7
    )
    assert isinstance(model, IIDModel)
    assert model.drop == pytest.approx(0.1)
    assert model.corrupt == pytest.approx(0.2)
    assert model.disconnect == pytest.approx(0.05)
    assert model.outage_events == 3
    assert model.bandwidth_kbps == pytest.approx(9.6)


def test_parse_gilbert_matched_and_explicit_forms():
    matched = parse_model_spec("gilbert:alpha=0.2,burst=5", seed=1)
    assert isinstance(matched, GilbertElliottModel)
    assert matched.stationary_alpha == pytest.approx(0.2)
    explicit = parse_model_spec("gilbert:good=0.01,bad=0.9,g2b=0.1,b2g=0.25")
    assert explicit.good_to_bad == pytest.approx(0.1)
    assert explicit.bad_to_good == pytest.approx(0.25)
    with pytest.raises(ValueError, match="mix of matched"):
        parse_model_spec("gilbert:alpha=0.2,g2b=0.1,b2g=0.2")
    with pytest.raises(ValueError, match="need alpha="):
        parse_model_spec("gilbert:burst=5")


def test_parse_trace_spec_loads_the_file(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps([{"frames": 1, "drop": 1.0}]), encoding="utf-8")
    model = parse_model_spec(f"trace:{path}", seed=3)
    assert isinstance(model, TraceModel)
    assert model.decide() == DROP


def test_parse_spec_rejects_malformed_input():
    with pytest.raises(ValueError, match="unknown channel model kind"):
        parse_model_spec("markov:order=2")
    with pytest.raises(ValueError, match="empty channel model spec"):
        parse_model_spec("   ")
    with pytest.raises(ValueError, match="unknown key"):
        parse_model_spec("iid:oops=1")
    with pytest.raises(ValueError, match="duplicate key"):
        parse_model_spec("iid:drop=0.1,drop=0.2")
    with pytest.raises(ValueError, match="not a number"):
        parse_model_spec("iid:drop=lots")
    with pytest.raises(ValueError, match="either corrupt= or its alias"):
        parse_model_spec("iid:corrupt=0.1,alpha=0.2")
    with pytest.raises(ValueError, match="not both"):
        parse_model_spec("iid:drop=0.1", rng=random.Random(0), seed=1)


def test_parse_spec_seed_matches_explicit_rng():
    a = parse_model_spec("iid:drop=0.3,corrupt=0.3", seed=11)
    b = parse_model_spec("iid:drop=0.3,corrupt=0.3", rng=random.Random(11))
    assert [a.decide() for _ in range(100)] == [b.decide() for _ in range(100)]
    # A spec and the model it names produce identical seeded verdicts.
    spec = parse_model_spec("iid:drop=0.1,corrupt=0.25,disconnect=0.002", seed=11)
    direct = IIDModel(
        rng=random.Random(11), drop=0.1, corrupt=0.25, disconnect=0.002
    )
    assert [spec.decide() for _ in range(300)] == [
        direct.decide() for _ in range(300)
    ]


# -- the recording wrapper -------------------------------------------------


def test_recording_model_logs_and_delegates():
    inner = IIDModel(rng=random.Random(6), drop=0.3, corrupt=0.3)
    recorder = RecordingModel(inner)
    assert isinstance(recorder, ChannelModel)
    verdicts = [recorder.decide() for _ in range(50)]
    assert recorder.verdicts == verdicts
    assert recorder.frames == 50
    assert recorder.counters() == inner.counters()
    assert recorder.drop == pytest.approx(0.3)  # attribute pass-through
    recorder.reset_counters()
    assert recorder.verdicts == [] and inner.frames == 0
