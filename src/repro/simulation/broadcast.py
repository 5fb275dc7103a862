"""Carousel-vs-unicast experiment: thousands of passive receivers.

The weakly-connected argument for broadcast delivery is a server-cost
one: a unicast server pays the air once **per reader**, a carousel pays
it once **per cycle** no matter how many radios are tuned in.  This
driver quantifies that trade for the repository's own artifacts — the
scheduler's precomputed tagged envelopes on one side, the per-reader
unicast frame stream on the other — under the same seeded channel
models the chaos layers use.

Everything here is sans-IO and slot-synchronous: one "slot" is one
wire envelope on the shared medium.  A fleet of
:class:`~repro.broadcast.receiver.CarouselReceiver` instances tunes in
at uniformly random offsets within the first cycle, each behind its
own seeded channel, and listens until its document decodes.  The
unicast baseline replays the same per-reader verdict schedules against
a dedicated round-based frame stream (the socket server's behaviour:
send what the reader is missing, repeat).

Outputs per channel model:

* **bytes on air** — carousel: bytes aired from cycle 0 until the last
  receiver finishes (the stream is shared); unicast: the sum over
  readers of every frame envelope sent to them.
* **tuning latency** — slots (and bytes) from a receiver's tune-in to
  its terminal effect, plus the sync latency (slots before the first
  air index was heard — bounded by one period by construction).

:func:`run_broadcast_experiment` bundles both sides over several
channel specs into one report row set for ``BENCH_broadcast.json``.
"""

from __future__ import annotations

import random
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from repro.broadcast import CarouselReceiver, CarouselScheduler
from repro.broadcast.airindex import ENVELOPE_OVERHEAD
from repro.channel import PASS, parse_model_spec
from repro.coding.packets import Packetizer
from repro.prep.prepare import DocumentSender, PreparedDocument
from repro.util.stats import percentile

#: Per-reader seed stride: readers i and j never share a channel
#: stream, and the carousel and unicast sides of the comparison reuse
#: the same per-reader seeds so both face the same adversary.
_SEED_STRIDE = 9973


def build_documents(
    count: int,
    *,
    size: int = 16384,
    packet_size: int = 256,
    gamma: float = 1.5,
    seed: int = 7,
) -> List[Tuple[PreparedDocument, bytes]]:
    """Cook *count* deterministic pseudo-random documents.

    Returns ``(prepared, payload)`` pairs; document ids are
    ``doc-000`` … hottest-first by convention (hotness is assigned by
    the caller).
    """
    if count < 1:
        raise ValueError(f"need at least one document, got {count}")
    sender = DocumentSender(
        Packetizer(packet_size=packet_size, redundancy_ratio=gamma)
    )
    documents = []
    for index in range(count):
        rng = random.Random(seed * 1_000_003 + index)
        payload = bytes(rng.randrange(256) for _ in range(size))
        documents.append((sender.prepare_raw(f"doc-{index:03d}", payload), payload))
    return documents


def zipf_hotness(count: int, *, base: int = 1024) -> List[int]:
    """A 1/rank demand profile: doc-000 hot, the tail cold."""
    return [max(1, base // (rank + 1)) for rank in range(count)]


def _reader_channel(spec: Optional[str], seed: int, reader: int):
    if spec is None:
        return None
    return parse_model_spec(spec, seed=seed + reader * _SEED_STRIDE)


def simulate_carousel(
    scheduler: CarouselScheduler,
    document_id: str,
    *,
    readers: int,
    channel_spec: Optional[str] = None,
    seed: int = 0,
    max_cycles: int = 100,
    expected_payload: Optional[bytes] = None,
    verify_payloads: int = 8,
) -> Dict[str, object]:
    """Tune *readers* passive receivers into the shared carousel stream.

    Each receiver joins at a uniformly random absolute slot offset
    within the first cycle and listens (through its own seeded channel)
    until it decodes or gives up after *max_cycles* cycle boundaries.
    Bytes on air accrue from slot 0 until the last receiver finishes —
    the stream is shared, so the fleet size never multiplies it.
    """
    if readers < 1:
        raise ValueError(f"need at least one reader, got {readers}")
    scheduler.build()
    period = scheduler.period_slots
    offset_rng = random.Random(seed ^ 0x5EED)
    frames = [
        (tag, bytes(envelope[ENVELOPE_OVERHEAD + 1 :]), len(envelope))
        for tag, _sequence, envelope in scheduler.frame_slots()
    ]

    class _State:
        __slots__ = (
            "receiver", "offset", "start_bytes", "finish_slot", "finish_bytes"
        )

        def __init__(self, receiver, offset):
            self.receiver = receiver
            self.offset = offset
            self.start_bytes = None
            self.finish_slot = None
            self.finish_bytes = None

    states = [
        _State(
            CarouselReceiver(
                document_id,
                max_cycles=max_cycles,
                channel=_reader_channel(channel_spec, seed, reader),
            ),
            offset_rng.randrange(period),
        )
        for reader in range(readers)
    ]
    active = set(range(readers))
    slot_index = 0
    cumulative_bytes = 0
    for cycle in range(max_cycles):
        if not active:
            break
        index = scheduler.air_index(cycle)
        index_length = len(index.encode())
        for kind, payload, length in [("index", index, index_length)] + [
            ("frame", (tag, frame), length) for tag, frame, length in frames
        ]:
            cumulative_bytes += length
            for reader in tuple(active):
                state = states[reader]
                if slot_index < state.offset:
                    continue
                if state.start_bytes is None:
                    state.start_bytes = cumulative_bytes - length
                if kind == "index":
                    terminal = state.receiver.on_air_index(payload)
                else:
                    terminal = state.receiver.on_frame(payload[0], payload[1])
                if terminal is not None:
                    state.finish_slot = slot_index
                    state.finish_bytes = cumulative_bytes
                    active.discard(reader)
            slot_index += 1
            if not active:
                # The stream goes dark for this workload the moment the
                # last receiver finishes; later slots cost nothing here.
                break
    bytes_on_air = cumulative_bytes
    for reader in active:
        state = states[reader]
        state.receiver.abort()
        state.finish_slot = slot_index - 1
        state.finish_bytes = cumulative_bytes

    verified = 0
    if expected_payload is not None:
        for state in states:
            if verified >= verify_payloads:
                break
            if state.receiver.decoded:
                if state.receiver.payload() != expected_payload:
                    raise AssertionError(
                        "carousel decode diverged from the unicast payload"
                    )
                verified += 1

    tuning_slots = [
        state.finish_slot - state.offset + 1 for state in states
    ]
    tuning_bytes = [
        state.finish_bytes - (state.start_bytes or 0) for state in states
    ]
    sync_slots = [state.receiver.slots_before_sync for state in states]
    decoded = sum(1 for state in states if state.receiver.decoded)
    return {
        "readers": readers,
        "decoded": decoded,
        "failed": readers - decoded,
        "period_slots": period,
        "cycles_aired": min(max_cycles, (slot_index + period - 1) // period),
        "bytes_on_air": bytes_on_air,
        "mean_tuning_slots": statistics.fmean(tuning_slots),
        "p95_tuning_slots": float(percentile(tuning_slots, 95.0)),
        "max_tuning_slots": max(tuning_slots),
        "mean_tuning_bytes": statistics.fmean(tuning_bytes),
        "mean_sync_slots": statistics.fmean(sync_slots),
        "max_sync_slots": max(sync_slots),
        "payloads_verified": verified,
    }


def simulate_unicast(
    prepared: PreparedDocument,
    *,
    readers: int,
    channel_spec: Optional[str] = None,
    seed: int = 0,
    max_rounds: int = 100,
) -> Dict[str, object]:
    """The dedicated-stream baseline: every reader gets its own rounds.

    Mirrors the socket server's retransmission loop without the
    sockets: each round sends the reader's missing cooked frames, the
    reader's channel verdicts decide what lands, and the next round
    resends the remainder.  Bytes on air are paid per reader — this is
    the quantity the carousel amortizes away.
    """
    if readers < 1:
        raise ValueError(f"need at least one reader, got {readers}")
    frames = prepared.cooked.frames()
    envelope_lengths = [ENVELOPE_OVERHEAD + len(frame) for frame in frames]
    m, n = prepared.m, prepared.n
    total_bytes = 0
    rounds_used: List[int] = []
    decoded = 0
    for reader in range(readers):
        channel = _reader_channel(channel_spec, seed, reader)
        intact: set = set()
        rounds = 0
        while len(intact) < m and rounds < max_rounds:
            rounds += 1
            for sequence in range(n):
                if sequence in intact:
                    continue
                total_bytes += envelope_lengths[sequence]
                verdict = PASS if channel is None else channel.decide()
                if verdict is PASS:
                    intact.add(sequence)
                if len(intact) >= m:
                    break
        rounds_used.append(rounds)
        if len(intact) >= m:
            decoded += 1
    return {
        "readers": readers,
        "decoded": decoded,
        "failed": readers - decoded,
        "bytes_on_air": total_bytes,
        "mean_rounds": statistics.fmean(rounds_used),
        "max_rounds": max(rounds_used),
        "bytes_per_reader": total_bytes / readers,
    }


def run_broadcast_experiment(
    *,
    readers: int = 1000,
    documents: int = 4,
    document_size: int = 16384,
    packet_size: int = 256,
    gamma: float = 1.5,
    schedule: str = "skewed",
    max_repeats: int = 8,
    channels: Sequence[Optional[str]] = (
        "iid:corrupt=0.1",
        "gilbert:alpha=0.1,burst=5",
    ),
    seed: int = 20000806,
    max_cycles: int = 100,
) -> Dict[str, object]:
    """Full comparison: one hot document, *readers* passive radios.

    Every reader wants ``doc-000`` (the hottest document of a 1/rank
    demand profile); the rest of the carousel rides along, as it would
    on a live broadcast disk.  Each entry of *channels* yields one
    comparison row; ``None`` means a clean channel.
    """
    cooked = build_documents(
        documents,
        size=document_size,
        packet_size=packet_size,
        gamma=gamma,
        seed=seed,
    )
    hotness = zipf_hotness(documents)
    scheduler = CarouselScheduler(schedule=schedule, max_repeats=max_repeats)
    for (prepared, _payload), hits in zip(cooked, hotness):
        scheduler.add_document(prepared, hits)
    scheduler.build()
    hot_prepared, hot_payload = cooked[0]

    rows: List[Dict[str, object]] = []
    for spec in channels:
        carousel = simulate_carousel(
            scheduler,
            hot_prepared.document_id,
            readers=readers,
            channel_spec=spec,
            seed=seed,
            max_cycles=max_cycles,
            expected_payload=hot_payload,
        )
        unicast = simulate_unicast(
            hot_prepared,
            readers=readers,
            channel_spec=spec,
            seed=seed,
            max_rounds=max_cycles,
        )
        rows.append(
            {
                "channel": spec or "clean",
                "carousel": carousel,
                "unicast": unicast,
                "air_savings_ratio": (
                    unicast["bytes_on_air"] / carousel["bytes_on_air"]
                    if carousel["bytes_on_air"]
                    else float("inf")
                ),
            }
        )
    return {
        "benchmark": "broadcast_carousel",
        "readers": readers,
        "documents": scheduler.documents,
        "hot_document": hot_prepared.document_id,
        "hotness": dict(zip(scheduler.documents, hotness)),
        "schedule": schedule,
        "period_slots": scheduler.period_slots,
        "cycle_bytes": scheduler.cycle_bytes(),
        "document_size": document_size,
        "packet_size": packet_size,
        "gamma": gamma,
        "seed": seed,
        "rows": rows,
    }
