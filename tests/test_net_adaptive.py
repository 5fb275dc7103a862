"""Adaptive redundancy over real sockets (the paper's §4.2 EWMA γ).

With ``adaptive_gamma=True`` the server sizes every round from its
per-client loss estimate instead of streaming all N cooked frames:
clean channels converge toward ``gamma_floor`` (redundant frames are
withheld), bursty ones push γ up toward ``gamma_ceiling``.  These
tests pin both directions plus the stats-snapshot surface, with
telemetry off and on.
"""

import asyncio
import random

import pytest

from repro import obs
from repro.channel import GilbertElliottModel
from repro.net import ChaosProxy, DocumentStore, NetServer
from repro.net.client import NetClient
from repro.prep.request import TransferSettings
from repro.transport.cache import PacketCache

from tests.netutil import assert_no_leaked_tasks, make_prepared

pytestmark = pytest.mark.net


def make_store(**kwargs):
    prepared, payload = make_prepared(**kwargs)
    store = DocumentStore()
    store.add(prepared)
    return store, prepared, payload


async def fetch_once(server, *, via=None):
    host = via.host if via is not None else server.host
    port = via.port if via is not None else server.port
    client = NetClient(
        host,
        port,
        cache=PacketCache(),
        settings=TransferSettings(round_timeout=2.0, max_reconnects=8),
        reconnect_delay=0.01,
    )
    return await client.fetch("doc")


def test_clean_channel_converges_to_the_floor_and_saves_frames():
    """No loss observed: γ sits at the floor, redundancy is withheld."""

    async def go():
        store, prepared, payload = make_store(size=8192, packet_size=64, gamma=2.0)
        async with NetServer(
            store, adaptive_gamma=True
        ) as server:
            result = await fetch_once(server)
            assert result.status == "decoded"
            assert result.payload == payload
            # The fixed-γ server would stream all N frames in round 1;
            # the adaptive one sends only need × γ_floor = M of them.
            assert server.stats["frames_sent"] < prepared.n
            assert server.stats["frames_sent"] >= prepared.m
            assert server.stats["adaptive_rounds"] >= 1
            assert server.stats["adaptive_frames_saved"] > 0
            snapshot = server.stats_snapshot()
            assert snapshot["adaptive"]["enabled"] is True
            assert snapshot["adaptive"]["clients"] == 1
            assert snapshot["adaptive"]["rounds"] >= 1
            assert snapshot["adaptive"]["frames_saved"] > 0
            (controller,) = server._gamma_controllers.values()
            assert controller.alpha_estimate == pytest.approx(0.0)
            assert controller.gamma() == pytest.approx(server.gamma_floor)
        await assert_no_leaked_tasks()

    asyncio.run(go())


def test_bursty_channel_pushes_gamma_above_the_clean_baseline():
    """Observed losses raise the EWMA estimate and with it γ."""

    async def go():
        store, prepared, payload = make_store(size=8192, packet_size=64, gamma=2.0)
        async with NetServer(
            store, adaptive_gamma=True, gamma_ceiling=3.0
        ) as server:
            model = GilbertElliottModel.matched_to_alpha(
                0.35, burst_length=6.0, rng=random.Random(20000806)
            )
            async with ChaosProxy(
                server.host, server.port, model=model
            ) as proxy:
                result = await fetch_once(server, via=proxy)
            assert result.status == "decoded"
            assert result.payload == payload
            assert proxy.stats["corrupted"] > 0
            assert result.rounds > 1  # corruption forced retransmission
            (controller,) = server._gamma_controllers.values()
            # The EWMA absorbed real loss: γ left the floor.
            assert controller.alpha_estimate > 0.05
            assert controller.gamma() > server.gamma_floor
            assert controller.gamma() <= server.gamma_ceiling
        await assert_no_leaked_tasks()

    asyncio.run(go())


def test_reconnecting_client_keeps_its_channel_estimate():
    """Controllers are keyed by transfer ID: a redial resumes the EWMA."""

    async def go():
        store, prepared, payload = make_store(size=8192, packet_size=64, gamma=2.0)
        async with NetServer(
            store, adaptive_gamma=True
        ) as server:
            model = GilbertElliottModel.matched_to_alpha(
                0.3, burst_length=5.0, rng=random.Random(7)
            )
            async with ChaosProxy(
                server.host,
                server.port,
                model=model,
                cut_after_frames=prepared.m // 2,
            ) as proxy:
                result = await fetch_once(server, via=proxy)
            assert result.status == "decoded"
            assert result.reconnects >= 1
            # Both connections fed the *same* controller.
            assert len(server._gamma_controllers) == 1
        await assert_no_leaked_tasks()

    asyncio.run(go())


def test_adaptive_counts_land_in_the_snapshot_with_telemetry_on():
    """The snapshot carries the adaptive counts when telemetry is on;
    the OBS registry keeps no second count."""

    async def go():
        store, _, _ = make_store(size=4096, packet_size=64, gamma=2.0)
        async with NetServer(store, adaptive_gamma=True) as server:
            result = await fetch_once(server)
            assert result.status == "decoded"
            snapshot = server.stats_snapshot()
        await assert_no_leaked_tasks()
        return snapshot

    obs.enable()
    try:
        snapshot = asyncio.run(go())
        assert snapshot["server"]["adaptive_rounds"] >= 1
        assert snapshot["adaptive"]["rounds"] == snapshot["server"]["adaptive_rounds"]
        assert snapshot["adaptive"]["clients"] == 1
        assert not [n for n in obs.OBS.metrics.names() if n.startswith("net.adaptive")]
    finally:
        obs.disable(reset=True)


def test_adaptive_knobs_are_validated_eagerly():
    store = DocumentStore()
    with pytest.raises(ValueError, match="floor"):
        NetServer(store, adaptive_gamma=True, gamma_floor=0.5)
    with pytest.raises(ValueError, match="ceiling"):
        NetServer(store, adaptive_gamma=True, gamma_floor=2.0, gamma_ceiling=1.5)
    # Disabled servers skip the validation path entirely.
    NetServer(store, adaptive_gamma=False, gamma_floor=0.5)
