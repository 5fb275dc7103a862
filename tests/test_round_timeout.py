"""The shared round-timeout constant and driver abort semantics.

One ``DEFAULT_ROUND_TIMEOUT`` lives in :mod:`repro.protocol`; the
simulated drivers guard rounds in channel time, the net layer in
wall-clock, and every driver funnels expiry through
``TransferEngine.abort()``.  Tier-1: no sockets, no sleeps.
"""

import inspect
import random

import pytest

import repro
from repro.protocol import (
    DEFAULT_MAX_ROUNDS,
    DEFAULT_ROUND_TIMEOUT,
    Failed,
    TransferEngine,
)
from repro.protocol.engine import DEFAULT_ROUND_TIMEOUT as ENGINE_CONSTANT
from repro.simulation.runner import simulate_transfer
from repro.transport.channel import WirelessChannel
from repro.prep import DocumentSender, TransferSettings
from repro.transport.session import transfer_document
from repro.coding.packets import Packetizer


def prepared_doc(payload=b"x" * 1024, packet_size=64, gamma=1.5):
    sender = DocumentSender(Packetizer(packet_size=packet_size, redundancy_ratio=gamma))
    return sender.prepare_raw("doc", payload)


def default_of(func, parameter):
    """*func*'s default for *parameter*, or its TransferSettings default
    when the driver takes its knobs through ``settings=``."""
    parameters = inspect.signature(func).parameters
    if parameter in parameters:
        return parameters[parameter].default
    assert parameters["settings"].default is None
    return getattr(TransferSettings(), parameter)


class TestConstant:
    def test_single_source_of_truth(self):
        assert DEFAULT_ROUND_TIMEOUT is ENGINE_CONSTANT
        assert repro.DEFAULT_ROUND_TIMEOUT is ENGINE_CONSTANT

    def test_value_clears_the_longest_legal_round(self):
        # The slowest simulated round is 255 frames at 19.2 kbps
        # (~27.6 s of channel time); the default must never clip it.
        worst_round = 255 * (258 * 8) / (19.2 * 1000)
        assert DEFAULT_ROUND_TIMEOUT > worst_round

    @pytest.mark.parametrize(
        "func, parameter",
        [
            (transfer_document, "round_timeout"),
            (simulate_transfer, "round_timeout"),
        ],
    )
    def test_driver_defaults(self, func, parameter):
        assert default_of(func, parameter) is DEFAULT_ROUND_TIMEOUT

    def test_prototype_and_net_defaults(self):
        from repro.net.client import NetClient
        from repro.net.server import NetServer
        from repro.prototype.client import SequenceManager

        for cls in (NetClient, NetServer, SequenceManager):
            assert (
                default_of(cls.__init__, "round_timeout") is DEFAULT_ROUND_TIMEOUT
            ), cls

    def test_worker_config_matches_a_default_server(self):
        # A pool built in code enforces the same retransmission bound
        # and round timeout as a single default server.
        from repro.net.server import DocumentStore, NetServer
        from repro.net.workers import WorkerConfig, build_server

        server = NetServer(DocumentStore())
        config = WorkerConfig()
        assert config.max_rounds == server.max_rounds == DEFAULT_MAX_ROUNDS
        assert config.round_timeout == server.round_timeout == DEFAULT_ROUND_TIMEOUT
        built = build_server(config, DocumentStore())
        assert (built.max_rounds, built.round_timeout) == (
            server.max_rounds,
            server.round_timeout,
        )

    def test_non_positive_timeout_rejected(self):
        prepared = prepared_doc()
        channel = WirelessChannel(alpha=0.0, rng=random.Random(0))
        with pytest.raises(ValueError):
            transfer_document(
                prepared, channel, settings=TransferSettings(round_timeout=0.0)
            )
        from repro.net.client import NetClient
        from repro.net.server import NetServer

        with pytest.raises(ValueError):
            NetClient(
                "127.0.0.1", 1, settings=TransferSettings(round_timeout=-1.0)
            )
        with pytest.raises(ValueError):
            NetServer(object(), round_timeout=0.0)


class TestAbort:
    def test_abort_fails_the_transfer(self):
        engine = TransferEngine(4, 6)
        engine.start()
        terminal = engine.abort()
        assert isinstance(terminal, Failed)
        assert terminal.round == 1
        assert engine.finished is terminal

    def test_abort_counts_intact(self):
        engine = TransferEngine(4, 6)
        engine.start()
        engine.on_frame_intact(0)
        engine.on_frame_intact(3)
        terminal = engine.abort()
        assert terminal == Failed(1, 2)

    def test_abort_after_terminal_is_idempotent(self):
        engine = TransferEngine(2, 3)
        engine.start()
        for sequence in range(2):
            terminal = engine.on_frame_intact(sequence)
        assert terminal is not None  # decoded
        assert engine.abort() is terminal

    def test_abort_emits_stall_then_failure_telemetry(self):
        from repro import obs
        from repro.protocol import TelemetryBridge

        obs.enable()
        try:
            bridge = TelemetryBridge("transfer")
            engine = TransferEngine(4, 6, document_id="d", bridge=bridge)
            engine.start()
            engine.abort()
            events = [record.event for record in obs.OBS.trace.events]
        finally:
            obs.disable(reset=True)
        assert "round_stalled" in events


class TestSessionTimeout:
    def test_session_aborts_on_expired_round(self):
        # alpha=1 corrupts every frame: without a timeout the session
        # would stall for max_rounds; a timeout shorter than one round
        # of channel time fails it on the first stall.
        prepared = prepared_doc()
        channel = WirelessChannel(alpha=1.0, rng=random.Random(7))
        result = transfer_document(
            prepared,
            channel,
            settings=TransferSettings(max_rounds=50, round_timeout=1e-6),
        )
        assert not result.success
        assert result.rounds == 1

    def test_session_default_is_not_hit(self):
        prepared = prepared_doc()
        channel = WirelessChannel(alpha=0.0, rng=random.Random(7))
        result = transfer_document(prepared, channel)
        assert result.success

    def test_runner_aborts_on_expired_round(self):
        result = simulate_transfer(
            m=8,
            n=12,
            alpha=1.0,
            packet_time=0.1,
            rng=random.Random(3),
            caching=True,
            max_rounds=50,
            round_timeout=1e-6,
        )
        assert not result.success
        assert result.rounds == 1

    def test_runner_matches_session_when_timeout_is_default(self):
        result = simulate_transfer(
            m=8,
            n=12,
            alpha=0.2,
            packet_time=0.1,
            rng=random.Random(3),
            caching=True,
        )
        assert result.success
