"""End-to-end telemetry tests: trace counts match protocol results.

The acceptance contract: ``python -m repro transfer … --trace t.jsonl``
followed by ``python -m repro obs-summary t.jsonl`` prints a timeline
whose round/frame counts exactly match the returned
:class:`TransferResult` fields — and the same holds for the oracle-mode
simulator and for direct library use.
"""

import random
import re

import pytest

from repro import obs
from repro.cli import main
from repro.coding.packets import Packetizer
from repro.data import draft_paper_path
from repro.obs import trace as tr
from repro.obs.summary import build_timelines
from repro.prep import DocumentSender, TransferSettings
from repro.simulation.runner import simulate_transfer
from repro.transport.cache import PacketCache
from repro.transport.channel import WirelessChannel
from repro.transport.session import transfer_document

DRAFT = str(draft_paper_path())


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable(reset=True)
    yield
    obs.disable(reset=True)


def _prepare(gamma=1.5):
    sender = DocumentSender(Packetizer(packet_size=128, redundancy_ratio=gamma))
    payload = draft_paper_path().read_bytes()
    return sender.prepare_raw("draft", payload)


class TestCliRoundTrip:
    def test_summary_counts_match_result(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        code = main(
            ["transfer", DRAFT, "--alpha", "0.25", "--cache",
             "--seed", "11", "--trace", str(trace_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        match = re.search(r"(\d+) round\(s\), (\d+) frames", out)
        assert match, out
        rounds, frames = int(match.group(1)), int(match.group(2))
        assert "seed=11" in out  # reproducibility echo

        # The trace agrees with the printed TransferResult.
        events = obs.load_jsonl(str(trace_path))
        (timeline,) = build_timelines(events)
        assert timeline.rounds == rounds
        assert timeline.frames == frames
        # Both via the protocol's own report and via raw event counts.
        assert len(timeline.rounds_list) == rounds
        assert timeline.frames_sent == frames

        # And obs-summary prints exactly those numbers.
        assert main(["obs-summary", str(trace_path)]) == 0
        summary = capsys.readouterr().out
        assert f"rounds={rounds} frames={frames}" in summary
        assert "== metrics ==" in summary  # snapshot embedded by --trace

    def test_cli_disables_telemetry_afterwards(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        main(["transfer", DRAFT, "--seed", "1", "--trace", str(trace_path)])
        capsys.readouterr()
        assert not obs.enabled()
        assert len(obs.OBS.trace) == 0

    def test_transfer_without_trace_leaves_no_telemetry(self, capsys):
        main(["transfer", DRAFT, "--seed", "1"])
        capsys.readouterr()
        assert not obs.enabled()
        assert len(obs.OBS.trace) == 0
        assert len(obs.OBS.metrics) == 0


class TestLibraryTransfers:
    @pytest.mark.parametrize("seed,alpha", [(0, 0.1), (7, 0.3), (42, 0.5)])
    def test_event_counts_match_result(self, seed, alpha):
        prepared = _prepare()
        channel = WirelessChannel(alpha=alpha, rng=random.Random(seed))
        obs.enable()
        result = transfer_document(prepared, channel, cache=PacketCache())
        events = [e.event for e in obs.OBS.trace.events]
        assert events.count(tr.ROUND_START) == result.rounds
        assert events.count(tr.FRAME_SENT) == result.frames_sent
        assert events.count(tr.TRANSFER_START) == 1
        assert events.count(tr.TRANSFER_COMPLETE) == 1
        if result.success:
            assert events.count(tr.DECODE_COMPLETE) == 1
        # CRC failures observed by the receiver equal the channel's
        # ground-truth corruption count (no silent miss).
        crc = obs.OBS.metrics.get("receiver.crc_failures")
        assert (crc.value if crc else 0) == channel.frames_corrupted

    def test_early_stop_emits_event(self):
        prepared = _prepare()
        channel = WirelessChannel(alpha=0.0, rng=random.Random(1))
        obs.enable()
        result = transfer_document(
            prepared, channel, settings=TransferSettings(relevance_threshold=0.2)
        )
        assert result.terminated_early
        events = [e.event for e in obs.OBS.trace.events]
        assert events.count(tr.EARLY_STOP) == 1
        assert events.count(tr.DECODE_COMPLETE) == 0

    def test_failed_transfer_counts_stalls(self):
        prepared = _prepare(gamma=1.0)
        channel = WirelessChannel(alpha=0.9, rng=random.Random(2))
        obs.enable()
        result = transfer_document(
            prepared, channel, settings=TransferSettings(max_rounds=3)
        )
        assert not result.success
        events = [e.event for e in obs.OBS.trace.events]
        assert events.count(tr.ROUND_START) == 3
        assert events.count(tr.ROUND_STALLED) == 3
        assert obs.OBS.metrics.get("transfer.stalls").value == 3

    def test_cache_hit_event_on_retransmission(self):
        prepared = _prepare(gamma=1.0)
        cache = PacketCache()
        channel = WirelessChannel(alpha=0.4, rng=random.Random(3))
        obs.enable()
        result = transfer_document(
            prepared,
            channel,
            cache=cache,
            settings=TransferSettings(max_rounds=50),
        )
        assert result.success
        if result.rounds > 1:  # a stall happened: cached packets reloaded
            events = [e.event for e in obs.OBS.trace.events]
            assert events.count(tr.CACHE_HIT) >= 1


class TestSimulationRunner:
    def test_outcome_counts_match_events(self):
        obs.enable()
        outcome = simulate_transfer(
            m=20, n=30, alpha=0.3, packet_time=0.1,
            rng=random.Random(5), caching=True,
        )
        events = [e.event for e in obs.OBS.trace.events]
        assert events.count(tr.ROUND_START) == outcome.rounds
        (complete,) = [
            e for e in obs.OBS.trace.events if e.event == tr.TRANSFER_COMPLETE
        ]
        assert complete.fields["rounds"] == outcome.rounds
        assert complete.fields["frames"] == outcome.packets_sent
        assert obs.OBS.metrics.get("sim.packets_sent").value == outcome.packets_sent

    def test_disabled_runner_emits_nothing(self):
        simulate_transfer(
            m=20, n=30, alpha=0.3, packet_time=0.1,
            rng=random.Random(5), caching=True,
        )
        assert len(obs.OBS.trace) == 0
        assert len(obs.OBS.metrics) == 0

    def test_telemetry_does_not_perturb_rng_stream(self):
        """Enabling telemetry must not change simulated outcomes."""
        baseline = simulate_transfer(
            m=25, n=40, alpha=0.25, packet_time=0.1,
            rng=random.Random(9), caching=False,
        )
        obs.enable()
        traced = simulate_transfer(
            m=25, n=40, alpha=0.25, packet_time=0.1,
            rng=random.Random(9), caching=False,
        )
        assert traced == baseline


class TestTransportVsTrace:
    def test_transfer_results_identical_with_and_without_telemetry(self):
        """The byte-level protocol is telemetry-transparent."""
        prepared = _prepare()
        baseline = transfer_document(
            prepared, WirelessChannel(alpha=0.3, rng=random.Random(13)),
            cache=PacketCache(),
        )
        obs.enable()
        traced = transfer_document(
            prepared, WirelessChannel(alpha=0.3, rng=random.Random(13)),
            cache=PacketCache(),
        )
        assert traced == baseline
