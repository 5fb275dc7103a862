"""Multi-worker serving: pool lifecycle, shared disk tier, drain.

Marked ``net``: spawns real worker processes on loopback sockets.
The cluster-wide guarantees under test — one cook however many
workers fork, graceful drain with final snapshots, no leaked
processes, warmup running once in the parent — are the tentpole
acceptance criteria of the multi-worker issue.
"""

import asyncio
import os
import signal
import time

import pytest

from repro.net import merge_snapshots, render_exposition, run_loadgen
from repro.net.workers import WorkerConfig, WorkerPool
from repro.obs import SLOTracker
from repro.obs.slo import RELATIVE_ERROR, bucket_index, bucket_seconds
from repro.prep import PrepRequest, PreparationService
from repro.util.stats import percentile

from tests.test_prep_service import PAPER

pytestmark = [pytest.mark.net]

REQUEST = PrepRequest(query="mobile web", packet_size=64)


def pool_config(tmp_path, **overrides):
    kwargs = dict(
        documents=(("doc", PAPER, False),),
        default_request=REQUEST,
        disk_root=str(tmp_path / "cache"),
        round_timeout=5.0,
    )
    kwargs.update(overrides)
    return WorkerConfig(**kwargs)


def loadgen(pool, clients):
    report, results = asyncio.run(
        run_loadgen(pool.host, pool.port, "doc", clients=clients, request=REQUEST)
    )
    return report, results


def settled_snapshot(pool, served, deadline_seconds=10.0):
    """Merged snapshot once the fleet has accounted *served* transfers.

    Client-side success races ahead of server-side bookkeeping: a
    handler only notices the departed client on its next socket op.
    Poll until completed + client_gone reaches the expected total (or
    the deadline passes and the last snapshot speaks for itself).
    """
    deadline = time.monotonic() + deadline_seconds
    while True:
        merged = pool.stats_snapshot(timeout=10.0)
        total = (
            merged["server"]["completed"] + merged["outcomes"]["client_gone"]
        )
        if total >= served or time.monotonic() >= deadline:
            return merged
        time.sleep(0.05)


def assert_all_reaped(pool):
    """No leaked worker processes: every pid is gone (or a zombie we own)."""
    assert pool.alive() == 0
    for pid in pool.pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue  # fully gone
        # Still signalable: must be our already-joined child (reaped
        # by multiprocessing), never a running process.
        assert not any(
            process.pid == pid and process.is_alive()
            for process in pool._processes
        )


class TestPoolLifecycle:
    def test_two_workers_one_cook_cluster_wide(self, tmp_path):
        with WorkerPool(pool_config(tmp_path), workers=2) as pool:
            report, results = loadgen(pool, 16)
            assert report.succeeded == 16
            payloads = {result.payload for result in results}
            assert len(payloads) == 1  # byte-identical across workers

            merged = settled_snapshot(pool, served=16)
            labels = {w.get("worker") for w in merged["workers"]}
            assert labels == {"w0", "w1"}
            # One pipeline run cluster-wide: a single cooked miss and a
            # single bundle write; every other first touch was a disk
            # hit (counted as a cooked hit).
            assert merged["prep"]["cooked_misses"] == 1
            assert merged["prep"]["disk_writes"] == 1
            assert merged["prep"]["disk_errors"] == 0
            # A client that closes the instant it decodes can race the
            # server's own bookkeeping into client_gone, so gate on the
            # sum rather than the exact completed split.
            served = (
                merged["server"]["completed"]
                + merged["outcomes"]["client_gone"]
            )
            assert served == 16
        assert_all_reaped(pool)

    def test_stop_returns_one_final_snapshot_per_worker(self, tmp_path):
        pool = WorkerPool(pool_config(tmp_path), workers=2)
        pool.start()
        loadgen(pool, 4)
        finals = pool.stop(drain_timeout=5.0)
        assert len(finals) == 2
        assert all(final is not None for final in finals)
        assert (
            sum(
                final["server"]["completed"]
                + final["outcomes"]["client_gone"]
                for final in finals
            )
            == 4
        )
        assert_all_reaped(pool)

    def test_shared_listener_fallback(self, tmp_path):
        config = pool_config(tmp_path, reuse_port=False)
        with WorkerPool(config, workers=2) as pool:
            assert pool._listener is not None
            report, _ = loadgen(pool, 8)
            assert report.succeeded == 8
            merged = pool.stats_snapshot(timeout=10.0)
            assert merged["prep"]["cooked_misses"] == 1
        assert_all_reaped(pool)

    def test_merged_exposition_carries_worker_labels(self, tmp_path):
        with WorkerPool(pool_config(tmp_path), workers=2) as pool:
            loadgen(pool, 4)
            merged = pool.stats_snapshot(timeout=10.0)
        body = render_exposition(merged)
        assert 'worker="w0"' in body
        assert 'worker="w1"' in body
        # The merged (unlabeled) family rides alongside the labeled ones.
        assert "\nrepro_server_completed " in "\n" + body


class TestWarmupRunsOnce:
    def test_parent_warmup_keeps_cluster_misses_at_one(self, tmp_path):
        # The ``--warmup --workers 4`` fix: the parent cooks into the
        # shared disk tier before any worker exists, so the cluster
        # keeps prep.misses{cooked} == 1 (the parent's) and no worker
        # ever runs the pipeline.
        disk_root = tmp_path / "cache"
        parent = PreparationService(
            default_request=REQUEST, disk_path=disk_root
        )
        parent.add_document("doc", PAPER)
        assert parent.warmup() == 1
        assert parent.stats["cooked_misses"] == 1
        assert parent.stats["disk_writes"] == 1

        config = pool_config(tmp_path, warmup=False)
        with WorkerPool(config, workers=4) as pool:
            report, _ = loadgen(pool, 12)
            assert report.succeeded == 12
            merged = pool.stats_snapshot(timeout=10.0)
            # Not a single worker re-cooked or re-persisted: every
            # first touch was a verified disk load.  Each worker loads
            # at most once, but SO_REUSEPORT makes no promise that a
            # small client burst reaches every worker, so the hit
            # count is a range rather than an equality.
            assert merged["prep"]["cooked_misses"] == 0
            assert merged["prep"]["disk_writes"] == 0
            assert 1 <= merged["prep"]["disk_hits"] <= len(merged["workers"])
        assert_all_reaped(pool)


class TestDrain:
    def test_sigterm_drains_one_worker(self, tmp_path):
        with WorkerPool(pool_config(tmp_path), workers=2) as pool:
            victim = pool.pids[1]
            os.kill(victim, signal.SIGTERM)
            deadline = time.monotonic() + 15.0
            while pool.alive() > 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.alive() == 1
            # The survivor still serves the shared port.
            report, _ = loadgen(pool, 4)
            assert report.succeeded == 4
        assert_all_reaped(pool)


class TestMergeSnapshots:
    def test_counters_sum_and_buckets_merge_exactly(self):
        fast, slow = SLOTracker(), SLOTracker()
        for index in range(10):
            fast.observe(0.1, ok=index != 0)
        for _ in range(30):
            slow.observe(0.2)
        a = {
            "server": {"completed": 3, "frames_sent": 30},
            "active_connections": 1,
            "prep": {"cooked_misses": 1, "cooked_hits": 2},
            "slo": fast.report(),
            "worker": "w0",
        }
        b = {
            "server": {"completed": 1, "frames_sent": 10},
            "active_connections": 0,
            "prep": {"cooked_misses": 0, "cooked_hits": 1},
            "slo": slow.report(),
            "worker": "w1",
        }
        merged = merge_snapshots([a, b])
        assert merged["server"] == {"completed": 4, "frames_sent": 40}
        assert merged["active_connections"] == 1
        assert merged["prep"] == {"cooked_misses": 1, "cooked_hits": 3}
        slo = merged["slo"]
        assert slo["count"] == 40 and slo["errors"] == 1
        # The bucket counts sum exactly, so the percentiles are exact
        # over the bucket midpoints: ranks 19 and 20 both fall at 0.2 s.
        assert slo["buckets"] == [[bucket_index(0.1), 10], [bucket_index(0.2), 30]]
        assert slo["p50_seconds"] == bucket_seconds(bucket_index(0.2))
        assert slo["mean_seconds"] == pytest.approx((0.1 * 10 + 0.2 * 30) / 40)
        assert merged["workers"] == [a, b]

    def test_disjoint_workers_merge_to_the_union_p95(self):
        fast, slow = SLOTracker(), SLOTracker()
        for _ in range(100):
            fast.observe(0.001)
            slow.observe(0.100)
        merged = merge_snapshots([{"slo": fast.report()}, {"slo": slow.report()}])
        union = percentile([0.001] * 100 + [0.100] * 100, 95.0)
        assert union == 0.100
        assert abs(merged["slo"]["p95_seconds"] - union) <= RELATIVE_ERROR * union
        assert "approximate" not in merged["slo"]

    def test_outcome_counts_sum_exactly(self):
        a = {"server": {}, "outcomes": {"decoded": 123_456_782, "client_gone": 2, "timeout": 0}}
        b = {"server": {}, "outcomes": {"decoded": 7, "client_gone": 0, "timeout": 1}}
        merged = merge_snapshots([a, b])
        assert merged["outcomes"] == {"decoded": 123_456_789, "client_gone": 2, "timeout": 1}
        # /metrics prints the counts exactly, not to six digits.
        body = "\n" + render_exposition(merged)
        assert "\nrepro_outcomes_decoded 123456789\n" in body
        assert 'repro_outcomes_decoded{worker="w1"} 7' in body

    def test_empty_merge_is_well_formed(self):
        merged = merge_snapshots([])
        assert merged["server"] == {}
        assert merged["workers"] == []
        assert merged["active_connections"] == 0
        assert "broadcast" not in merged

    def test_unicast_only_fleet_has_no_broadcast_section(self):
        merged = merge_snapshots([{"server": {"completed": 1}}])
        assert "broadcast" not in merged
