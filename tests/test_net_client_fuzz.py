"""Socket-free fuzzer for the client's delivery modes (tier-1).

The fetch loop of :class:`repro.net.client.NetClient` hands every
envelope a server sends to a sans-IO delivery mode.  Started from a
valid manifest (unicast) or a valid air index (carousel), the modes
are fed arbitrary envelopes, redials included, and must:

* let only :class:`WireError` escape, ``finish`` included;
* make at most ``n`` frame events per envelope, plus one round
  boundary — a claimed ``ROUND_END.sent`` cannot buy more;
* reply only with well-formed ``NEXT_ROUND`` envelopes.
"""

import base64
import contextlib
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.broadcast import AirIndex, CarouselEntry, CarouselReceiver
from repro.coding.packets import encode_frame
from repro.net.client import _Carousel, _Unicast
from repro.prep.prepare import encode_profile
from repro.net.wire import (
    MESSAGE_NAMES,
    MSG_AIR_INDEX,
    MSG_BCAST_FRAME,
    MSG_ERROR,
    MSG_FRAME,
    MSG_MANIFEST,
    MSG_NEXT_ROUND,
    MSG_ROUND_END,
    WireError,
    decode_json,
    encode_json,
)
from repro.protocol import TelemetryBridge, TransferEngine
from repro.transport.cache import PacketCache

M, N, PACKET_SIZE, TAG = 4, 8, 16, 3
FRAME_EVENTS = ("on_frame_intact", "on_frame_corrupt", "on_frame_lost")
OTHER_EVENTS = ("start", "on_round_ended", "abort")

MANIFEST = {
    "doc": "doc",
    "m": M,
    "n": N,
    "packet_size": PACKET_SIZE,
    "original_size": M * PACKET_SIZE - 5,
    "systematic": True,
    "profile": encode_profile([0.25] * M),
    "skip": [],
}
ENTRY = CarouselEntry(
    document_id="doc",
    tag=TAG,
    m=M,
    n=N,
    packet_size=PACKET_SIZE,
    original_size=M * PACKET_SIZE - 5,
    profile=(0.25,) * M,
)
AIR_INDEX = AirIndex(cycle=0, schedule="flat", entries=(ENTRY,), layout=((TAG, N),))
BASES = {
    MSG_MANIFEST: MANIFEST,
    MSG_ROUND_END: {"round": 1},
    MSG_AIR_INDEX: AIR_INDEX.to_wire(),
    MSG_ERROR: {"message": "refused"},
}

#: Integers on and past the bounds a server message must respect,
#: mixed with arbitrary ones.
integers = st.one_of(
    st.sampled_from([-1, 0, N, N + 1, 2**31, 2**70]),
    st.integers(min_value=-(2**70), max_value=2**70),
)
scalars = st.one_of(
    integers,
    st.floats(),
    st.booleans(),
    st.text(max_size=6),
    st.none(),
)
values = st.one_of(scalars, st.lists(scalars, max_size=3))
#: Profile wire forms: base64 of 8·m bytes and of lengths around it
#: (NaN and infinities among the doubles), arbitrary text and values.
profiles = st.one_of(
    values,
    st.binary(min_size=8 * M - 1, max_size=8 * M + 1).map(
        lambda raw: base64.b64encode(raw).decode("ascii")
    ),
    st.lists(st.floats(), min_size=M, max_size=M).map(encode_profile),
    st.text(max_size=12),
)
entries = st.lists(
    st.one_of(
        scalars,
        st.fixed_dictionaries(
            {}, optional={"m": values, "n": values, "profile": profiles}
        ).map(
            lambda over: {**ENTRY.to_wire(), **over}
        ),
    ),
    max_size=2,
)
#: The fields each JSON message type is read for.
TARGETS = {
    MSG_ROUND_END: ("sent", "round"),
    MSG_MANIFEST: ("m", "n", "profile"),
    MSG_AIR_INDEX: ("schedule", "entries"),
}
FIELDS = ("sent", "round", "m", "n", "profile", "schedule", "entries")
frames = st.builds(
    encode_frame,
    st.integers(0, N + 1),
    st.one_of(
        st.binary(min_size=PACKET_SIZE, max_size=PACKET_SIZE),
        st.binary(max_size=PACKET_SIZE + 2),
    ),
)


@st.composite
def envelopes(draw, usual):
    """``None`` (the connection drops) or a ``(msg_type, body)`` pair.

    Types the mode expects and well-formed bodies are drawn more often
    than the rest, so scripts reach round ends, redials and verdicts.
    A hostile body is raw bytes, or the type's usual JSON with some of
    the fields it is read for overridden.
    """
    if draw(st.integers(0, 15)) == 0:
        return None
    msg_type = draw(st.sampled_from(usual * 4 + sorted(MESSAGE_NAMES)))
    hostile = draw(st.integers(0, 2)) == 0
    if hostile and draw(st.integers(0, 3)) == 0:
        return msg_type, draw(st.binary(max_size=24))
    if msg_type in (MSG_FRAME, MSG_BCAST_FRAME):
        body = draw(frames)
        if msg_type == MSG_BCAST_FRAME:
            body = bytes([draw(st.sampled_from((TAG, 0)))]) + body
        return msg_type, body
    fields = dict(BASES.get(msg_type, {}))
    if msg_type == MSG_ROUND_END:
        fields["sent"] = draw(st.integers(0, N))
    if hostile:
        for key in draw(st.sets(st.sampled_from(TARGETS.get(msg_type, FIELDS)), min_size=1)):
            special = {"entries": entries, "profile": profiles}.get(key, values)
            fields[key] = draw(st.one_of(integers, special))
    return msg_type, encode_json(msg_type, fields)[5:]


@contextlib.contextmanager
def counted_engine_events():
    """Count engine calls per envelope; fail fast past the bound."""
    counts = {"frame": 0, "all": 0}
    originals = {name: getattr(TransferEngine, name) for name in FRAME_EVENTS + OTHER_EVENTS}

    def counted(name, original):
        def call(self, *args, **kwargs):
            counts["all"] += 1
            counts["frame"] += name in FRAME_EVENTS
            assert counts["frame"] <= N, "more than n frame events from one envelope"
            assert counts["all"] <= N + 1, "more than n + 1 engine events from one envelope"
            return original(self, *args, **kwargs)

        return call

    for name, original in originals.items():
        setattr(TransferEngine, name, counted(name, original))
    try:
        yield counts
    finally:
        for name, original in originals.items():
            setattr(TransferEngine, name, original)


def assert_next_round(reply: bytes) -> None:
    assert int.from_bytes(reply[:4], "big") == len(reply) - 4
    assert reply[4] == MSG_NEXT_ROUND
    fields = decode_json(reply[5:])
    assert set(fields) == {"round", "have"}
    assert type(fields["round"]) is int and fields["round"] >= 1
    have = fields["have"]
    assert have == sorted(set(have))
    assert all(type(sequence) is int and 0 <= sequence < N for sequence in have)


def unstarted_unicast():
    mode = _Unicast(
        "doc",
        TelemetryBridge("transfer", transfer_id="fuzz"),
        PacketCache(),
        relevance_threshold=None,
        max_rounds=4,
    )
    mode.connected()
    return mode


def unicast():
    mode = unstarted_unicast()
    assert mode.on_message(MSG_MANIFEST, encode_json(MSG_MANIFEST, MANIFEST)[5:]) == (None, None)
    return mode


def carousel():
    mode = _Carousel(CarouselReceiver("doc", max_cycles=4))
    mode.connected()
    assert mode.on_message(MSG_AIR_INDEX, AIR_INDEX.encode()[5:]) == (None, None)
    return mode


def drive(mode, script) -> None:
    """Feed *script* the way the fetch loop would, checking each step."""
    verdict = None
    with counted_engine_events() as counts:
        for step in script:
            counts["frame"] = counts["all"] = 0
            try:
                if step is None:
                    verdict = mode.dropped()
                    mode.connected()
                else:
                    verdict, reply = mode.on_message(*step)
                    if reply is not None:
                        assert_next_round(reply)
            except WireError:
                verdict = mode.abort()
            if verdict is not None:
                break
    if verdict is not None:
        try:
            mode.finish(verdict)
        except WireError:
            pass


@settings(max_examples=400, deadline=None)
@given(st.lists(envelopes([MSG_FRAME] * 4 + [MSG_ROUND_END] * 2 + [MSG_MANIFEST]), max_size=30))
def test_unicast_takes_any_server_input(script):
    drive(unicast(), script)


@settings(max_examples=400, deadline=None)
@given(st.lists(envelopes([MSG_BCAST_FRAME] * 4 + [MSG_AIR_INDEX] * 2), max_size=30))
def test_carousel_takes_any_server_input(script):
    drive(carousel(), script)


@pytest.mark.parametrize("sent", [N + 1, 30_000_000, -1, 2.0, True, "8", [8]])
def test_round_end_sent_is_bounded(sent):
    mode = unicast()
    with pytest.raises(WireError, match="ROUND_END sent"):
        mode.on_message(MSG_ROUND_END, encode_json(MSG_ROUND_END, {"sent": sent})[5:])


def test_round_end_sent_in_range_is_accepted():
    mode = unicast()
    frame = encode_frame(0, bytes(PACKET_SIZE))
    assert mode.on_message(MSG_FRAME, frame) == (None, None)
    verdict, reply = mode.on_message(
        MSG_ROUND_END, encode_json(MSG_ROUND_END, {"round": 1, "sent": N})[5:]
    )
    assert verdict is None
    assert decode_json(reply[5:]) == {"round": 2, "have": [0]}
    assert mode.engine.lost_seen == N - 1


def b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


#: A present profile that is not m finite doubles in canonical base64.
MALFORMED_PROFILES = pytest.mark.parametrize(
    "profile",
    [
        [0.25] * M,
        [1e308] * M + [2**1100],
        None,
        8,
        "not base64!",
        b64(bytes(8 * M - 2)).rstrip("="),
        b64(bytes(8 * M))[:-1] + "?",
        b64(bytes(12)) + " " + b64(bytes(8 * M - 12)),
        " " + b64(bytes(8 * M)),
        b64(bytes(8 * M)) + "\n",
        "é" * 44,
        b64(bytes(8 * M - 1)),
        b64(bytes(8 * M + 1)),
        b64(bytes(8 * M))[:-4] + "AAB=",
        encode_profile([0.25] * (M - 1) + [float("nan")]),
        encode_profile([0.25] * (M - 1) + [float("inf")]),
        encode_profile([float("-inf")] + [0.25] * (M - 1)),
    ],
    ids=[
        "list", "list-overflow", "null", "number", "bad-base64", "unpadded", "bad-char",
        "inner-space", "leading-space", "trailing-newline", "non-ascii", "8m-1-bytes",
        "8m+1-bytes", "stray-padding-bits", "nan", "inf", "minus-inf",
    ],
)


@pytest.mark.parametrize(
    "fields",
    [
        {**AIR_INDEX.to_wire(), "schedule": "bogus"},
        {**AIR_INDEX.to_wire(), "entries": [5]},
    ],
    ids=["schedule", "entry"],
)
def test_malformed_air_index_is_a_wire_error(fields):
    mode = _Carousel(CarouselReceiver("doc"))
    with pytest.raises(WireError, match="malformed air index"):
        mode.on_message(MSG_AIR_INDEX, encode_json(MSG_AIR_INDEX, fields)[5:])
    assert not mode.started


@MALFORMED_PROFILES
def test_malformed_air_index_profile_is_a_wire_error(profile):
    fields = {**AIR_INDEX.to_wire(), "entries": [{**ENTRY.to_wire(), "profile": profile}]}
    mode = _Carousel(CarouselReceiver("doc"))
    with pytest.raises(WireError, match="malformed air index"):
        mode.on_message(MSG_AIR_INDEX, encode_json(MSG_AIR_INDEX, fields)[5:])
    assert not mode.started


def test_air_index_that_cannot_sync_leaves_the_receiver_unsynced():
    # Relevance termination needs a profile; without one the index is
    # refused and the fetch still counts as never started.
    entry = dataclasses.replace(ENTRY, profile=()).to_wire()
    assert "profile" not in entry
    fields = {**AIR_INDEX.to_wire(), "entries": [entry]}
    mode = _Carousel(CarouselReceiver("doc", relevance_threshold=0.5))
    with pytest.raises(WireError, match="malformed air index"):
        mode.on_message(MSG_AIR_INDEX, encode_json(MSG_AIR_INDEX, fields)[5:])
    assert not mode.started


def test_a_frame_of_the_wrong_length_is_corrupt():
    # Every cooked packet of a document is packet_size bytes; keeping a
    # CRC-valid frame of another length would break the decode.
    short = encode_frame(0, bytes(PACKET_SIZE - 1))
    mode = unicast()
    assert mode.on_message(MSG_FRAME, short) == (None, None)
    assert mode.engine.corrupted_seen == 1 and not mode.intact
    mode = carousel()
    assert mode.on_message(MSG_BCAST_FRAME, bytes([TAG]) + short) == (None, None)
    assert mode.receiver.frames_corrupt == 1 and mode.receiver.intact_count == 0


@pytest.mark.parametrize(
    "fields",
    [{"m": float("inf")}, {"n": "eight"}, {"m": 0}],
    ids=["infinite", "text", "geometry"],
)
def test_malformed_manifest_is_a_wire_error(fields):
    mode = unstarted_unicast()
    with pytest.raises(WireError, match="malformed manifest"):
        mode.on_message(MSG_MANIFEST, encode_json(MSG_MANIFEST, {**MANIFEST, **fields})[5:])
    assert not mode.started


@MALFORMED_PROFILES
def test_malformed_manifest_profile_is_a_wire_error(profile):
    mode = unstarted_unicast()
    with pytest.raises(WireError, match="malformed manifest"):
        mode.on_message(
            MSG_MANIFEST, encode_json(MSG_MANIFEST, {**MANIFEST, "profile": profile})[5:]
        )
    assert not mode.started


def test_manifest_without_a_profile_starts_without_one():
    fields = {key: value for key, value in MANIFEST.items() if key != "profile"}
    mode = unstarted_unicast()
    assert mode.on_message(MSG_MANIFEST, encode_json(MSG_MANIFEST, fields)[5:]) == (None, None)
    assert mode.manifest.profile is None
