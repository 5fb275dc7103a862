#!/usr/bin/env python3
"""Adaptive redundancy: EWMA channel tracking chooses γ per transfer.

The paper (§4.2) proposes tuning the redundancy ratio "as an adaptive
function of the observed summarized value of α, using perhaps a kind
of EWMA measure".  This example browses a long sequence of documents
while the channel quality drifts (good → bad → good) and compares

* a fixed γ = 1.5 sender (the paper's default), against
* an adaptive sender whose γ follows the EWMA estimate of α.

The adaptive sender spends extra redundancy only while the channel is
actually bad, avoiding both stalls (too little redundancy) and wasted
bandwidth (too much).

Run:  python examples/adaptive_redundancy.py
"""

import random

from repro.analysis import AdaptiveRedundancyController
from repro.coding import Packetizer
from repro.prep import DocumentSender, TransferSettings
from repro.transport import PacketCache, WirelessChannel, transfer_document

DOCUMENT = b"x" * 10240  # one Table 2 sized document
PHASES = [(0.1, 12), (0.45, 12), (0.1, 12)]  # (alpha, documents)


def run(adaptive: bool, seed: int = 5) -> tuple:
    controller = AdaptiveRedundancyController(
        success=0.95, m_hint=40, weight=0.3, initial_alpha=0.1
    )
    rng = random.Random(seed)
    total_time = 0.0
    total_frames = 0
    stalled_rounds = 0
    gammas = []

    for alpha, count in PHASES:
        channel = WirelessChannel(alpha=alpha, rng=rng)
        for _ in range(count):
            gamma = controller.gamma() if adaptive else 1.5
            gammas.append(gamma)
            sender = DocumentSender(
                Packetizer(packet_size=256, redundancy_ratio=gamma)
            )
            prepared = sender.prepare_raw("doc", DOCUMENT)
            channel.reset_counters()
            result = transfer_document(
                prepared,
                channel,
                cache=PacketCache(),
                settings=TransferSettings(max_rounds=50),
            )
            total_time += result.response_time
            total_frames += result.frames_sent
            stalled_rounds += result.rounds - 1
            controller.record_transfer(
                corrupted=channel.frames_corrupted, total=channel.frames_sent
            )
    return total_time, total_frames, stalled_rounds, gammas


def main() -> None:
    docs = sum(count for _alpha, count in PHASES)
    print(f"Browsing {docs} documents while alpha drifts {[a for a, _ in PHASES]}\n")
    for label, adaptive in (("fixed gamma=1.5", False), ("adaptive gamma ", True)):
        time_s, frames, stalls, gammas = run(adaptive)
        print(
            f"{label}: total {time_s:7.1f}s, {frames:5d} frames, "
            f"{stalls:2d} stalled round(s)"
        )
        if adaptive:
            trace = " ".join(f"{g:.2f}" for g in gammas[::4])
            print(f"  gamma trace (every 4th doc): {trace}")


if __name__ == "__main__":
    main()
