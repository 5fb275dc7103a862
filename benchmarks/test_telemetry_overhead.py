"""Telemetry overhead — the disabled path must be (nearly) free.

Compares the instrumented oracle-mode simulator against a pristine
uninstrumented copy of the same loop, with telemetry disabled:

* the relative slowdown, the median over alternating
  reference/instrumented pairs of the pair's time ratio, must stay
  under 2% (the acceptance bound for this subsystem — fig2/fig4
  regressions inherit from this loop);
* the disabled path must not allocate a single object inside
  ``repro/obs`` (tracemalloc-verified), so hot paths pay exactly one
  attribute read per guard.

Identical outcomes between the two loops are asserted on every run —
the instrumentation is behaviour-transparent by construction.
"""

from __future__ import annotations

import random
import statistics
import time
import tracemalloc

from conftest import emit

from repro import obs
from repro.protocol import EarlyStop, Failed, TransferEngine
from repro.simulation.runner import TransferOutcome, simulate_transfer

# The measurement workload: one mid-grid configuration repeated many
# times; every transfer re-seeds so both loops see identical streams.
M, N, ALPHA, PACKET_TIME = (33, 50, 0.3, 0.1)
TRANSFERS_PER_TRIAL = 300
#: Reference/instrumented pairs; each pair runs both loops on the same
#: seeds, and every other pair runs the instrumented loop first.
PAIRS = 21


def _reference_transfer(
    m, n, alpha, packet_time, rng, caching,
    relevance_threshold=None, content_profile=None, max_rounds=25,
):
    """``simulate_transfer`` with every telemetry line stripped out.

    Line-for-line the same engine-driven loop, but with no
    ``TelemetryBridge`` attached to the engine and no ``complete()``
    call, so the timing difference isolates the bridge's
    ``OBS.enabled`` guards alone (per-round and per-transfer; the
    per-packet path carries no instrumentation at all).
    """
    engine = TransferEngine(
        m,
        n,
        content_profile=list(content_profile) if content_profile is not None else None,
        caching=caching,
        relevance_threshold=relevance_threshold,
        max_rounds=max_rounds,
        document_id="sim",
        bridge=None,
    )

    rand = rng.random
    on_intact = engine.on_frame_intact
    time_ = 0.0
    packets_sent = 0

    terminal = engine.start()
    while terminal is None:
        for seq in range(n):
            time_ += packet_time
            packets_sent += 1
            if rand() < alpha:
                continue
            terminal = on_intact(seq)
            if terminal is not None:
                break
        else:
            terminal = engine.on_round_ended()

    return TransferOutcome(
        time_,
        terminal.round,
        packets_sent,
        success=not isinstance(terminal, Failed),
        terminated_early=isinstance(terminal, EarlyStop),
    )


def _run_trial(transfer, seed_base):
    outcomes = []
    start = time.perf_counter()
    for i in range(TRANSFERS_PER_TRIAL):
        outcomes.append(
            transfer(
                m=M, n=N, alpha=ALPHA, packet_time=PACKET_TIME,
                rng=random.Random(seed_base + i), caching=True,
            )
        )
    return time.perf_counter() - start, outcomes


def test_disabled_telemetry_overhead_under_two_percent():
    obs.disable(reset=True)
    # One untimed trial each, so neither side pays first-call costs.
    _run_trial(_reference_transfer, 0)
    _run_trial(simulate_transfer, 0)

    # A pair's two trials run back to back, so drift (thermal,
    # scheduler, a neighbour's load) hits both; alternating which runs
    # first cancels an order bias, and the median ratio ignores the
    # pairs a burst of noise lands in.
    instrumented, reference, ratios = [], [], []
    for pair in range(PAIRS):
        seed_base = pair * 1000
        if pair % 2:
            ins_s, ins_outcomes = _run_trial(simulate_transfer, seed_base)
            ref_s, ref_outcomes = _run_trial(_reference_transfer, seed_base)
        else:
            ref_s, ref_outcomes = _run_trial(_reference_transfer, seed_base)
            ins_s, ins_outcomes = _run_trial(simulate_transfer, seed_base)
        assert ins_outcomes == ref_outcomes  # behaviour-transparent
        reference.append(ref_s)
        instrumented.append(ins_s)
        ratios.append(ins_s / ref_s)

    overhead = statistics.median(ratios) - 1.0

    lines = [
        f"workload: {PAIRS} alternating pairs x {TRANSFERS_PER_TRIAL} transfers "
        f"(M={M}, N={N}, alpha={ALPHA}, caching)",
        f"reference (uninstrumented copy): median {statistics.median(reference) * 1e3:8.2f} ms  "
        f"(trials: {', '.join(f'{s * 1e3:.1f}' for s in reference)})",
        f"instrumented, telemetry OFF:     median {statistics.median(instrumented) * 1e3:8.2f} ms  "
        f"(trials: {', '.join(f'{s * 1e3:.1f}' for s in instrumented)})",
        f"overhead (median pair ratio): {overhead:+.2%}  (bound: +2.00%)",
    ]
    emit("telemetry_overhead", "\n".join(lines) + "\n")

    assert overhead < 0.02, (
        f"disabled-telemetry overhead {overhead:+.2%} exceeds the 2% bound"
    )


def test_disabled_path_allocates_nothing_in_obs():
    """The guard is one attribute read: zero allocations from repro/obs."""
    obs.disable(reset=True)

    # Warm up so module-level/lazy setup doesn't count as hot-path cost.
    simulate_transfer(
        m=M, n=N, alpha=ALPHA, packet_time=PACKET_TIME,
        rng=random.Random(0), caching=True,
    )

    tracemalloc.start()
    try:
        simulate_transfer(
            m=M, n=N, alpha=ALPHA, packet_time=PACKET_TIME,
            rng=random.Random(1), caching=True,
        )
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    obs_stats = [
        stat
        for stat in snapshot.statistics("filename")
        if "/repro/obs/" in stat.traceback[0].filename.replace("\\", "/")
    ]
    assert obs_stats == [], (
        "disabled telemetry allocated memory inside repro/obs: "
        + "; ".join(str(stat) for stat in obs_stats)
    )
