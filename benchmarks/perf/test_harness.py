"""Correctness checking and error counting of the driver."""

import hashlib

import pytest

from harness import Sample, Window, check_payload, diagnostics, end_to_end


def test_a_corrupted_payload_is_a_mismatch():
    payload = b"<paper>weakly connected</paper>"
    expected = hashlib.sha256(payload).hexdigest()
    assert check_payload("decoded", payload, expected) == "ok"
    corrupted = bytearray(payload)
    corrupted[3] ^= 0x01
    assert check_payload("decoded", bytes(corrupted), expected) == "mismatch"
    assert check_payload("failed", None, expected) == "failed"
    assert check_payload("early_stop", None, expected) == "failed"


def _window(outcomes):
    samples = [
        Sample(due=i * 0.1, start=i * 0.1, end=i * 0.1 + 0.005, outcome=o,
               payload=1000 if o == "ok" else 0, rounds=1)
        for i, o in enumerate(outcomes)
    ]
    return Window(
        samples=samples, t0=0.0, t1=len(outcomes) * 0.1, driver_cpu=0.01, server_cpu=0.02, server_threads={}, driver_threads={},
        server_delta={"bytes_sent": 1700 * outcomes.count("ok"), "batches_sent": 1,
                      "resumed_frames_skipped": 0},
        prep_delta={}, sendq_high_water_bytes=0,
    )


def test_mismatches_and_failures_count_as_errors():
    window = _window(["ok"] * 18 + ["mismatch", "failed"])
    record = diagnostics(window, closed=True, calibration=(10.0, 10.0),
                         tightest_bound=0.1, shared_core=False)
    assert record["attempted"] == 20
    assert record["failed"] == 2
    assert record["error_rate"] == 0.1
    metrics = end_to_end(window, peak_rss_mb=40.0, setup=[0.3, 0.2, 0.4])
    assert metrics["fetches_per_s"] == pytest.approx(18 / 2.0)
    assert metrics["server_cpu_ms_per_fetch"] == pytest.approx(20.0 / 18)
    assert metrics["wire_bytes_per_payload_byte"] == pytest.approx(1.7)
    assert metrics["setup_s"] == 0.3


def test_validity_guards():
    window = _window(["ok"] * 20)
    assert diagnostics(window, True, (10.0, 10.5), 0.1, False)["valid"]
    drifted = diagnostics(window, True, (10.0, 12.0), 0.1, False)
    assert not drifted["valid"] and "calibration" in drifted["invalid_reasons"][0]
    shared = diagnostics(window, True, (10.0, 10.0), 0.1, True)
    assert not shared["valid"] and "shared_core" in shared["invalid_reasons"][0]
