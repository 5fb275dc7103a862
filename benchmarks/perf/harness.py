"""Two-process harness: a pinned ``repro net serve`` and a pinned driver.

Everything is measured from outside the program.  Server CPU comes from
``/proc/<pid>/stat``, its peak RSS from ``VmHWM`` in
``/proc/<pid>/status``, its per-thread CPU from
``/proc/<pid>/task/<tid>/schedstat``; driver CPU from
``time.process_time()``; server counters from the
public ``fetch_stats()`` STATS frame read before and after the window.
The driver fetches with the public :class:`~repro.net.NetClient` (and a
:class:`~repro.net.ChaosProxy` on the lossy workload) and checks every
decoded payload against an in-process reference.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import platform
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

import perfstats
from workloads import Inputs, Request, Workload

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent

CLK_TCK = os.sysconf("SC_CLK_TCK")

#: CPUs this process may run on, read before the driver pins itself.
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))

#: Bounds on waiting for a child, generous for a cold corpus warmup.
LISTEN_TIMEOUT = 120.0
STOP_TIMEOUT = 20.0

#: Validity guards: open-loop generator lateness and driver saturation.
MAX_LAG_P99_MS = 20.0
MAX_DRIVER_BUSY = 0.9

_LISTENING = re.compile(r"listening on [^:]+:(\d+)")


def child_env() -> Dict[str, str]:
    """Environment for the server: the checkout's sources, unbuffered output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


# -- host ----------------------------------------------------------------------


def pick_cpus() -> Tuple[Optional[int], Optional[int]]:
    """(server CPU, driver CPU), or (None, None) with fewer than 2 allowed."""
    if len(ALLOWED_CPUS) < 2:
        return None, None
    return ALLOWED_CPUS[0], ALLOWED_CPUS[1]


def host_record(server_cpu: Optional[int], driver_cpu: Optional[int]) -> Dict[str, object]:
    from repro.coding.backend import get_backend

    backend = get_backend()
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": len(ALLOWED_CPUS),
        "cpus_pinned": {"server": server_cpu, "driver": driver_cpu},
        "shared_core": server_cpu is None,
        "python": platform.python_version(),
        "backend": {
            "name": backend.name,
            "native": bool(getattr(backend, "native", False)),
            "native_simd": bool(getattr(backend, "native_simd", False)),
        },
        "commit": commit,
    }


def _probe() -> int:
    table: Dict[int, int] = {}
    total = 0
    for i in range(60_000):
        key = (i * 7919) % 997
        table[key] = table.get(key, 0) + i
        total ^= table[key]
    return total


def calibration_ms() -> float:
    """A fixed pure-Python probe on the driver CPU: best of 40 (~0.4 s), in ms."""
    best = float("inf")
    for _ in range(40):
        start = time.process_time()
        _probe()
        best = min(best, time.process_time() - start)
    return best * 1000.0


def _stat_cpu(path: str) -> float:
    """utime + stime (seconds) from a ``/proc/.../stat`` file."""
    with open(path, "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def read_process_cpu(pid: int) -> float:
    """CPU seconds of a whole process, live and exited threads."""
    return _stat_cpu(f"/proc/{pid}/stat")


def read_thread_cpu(pid: int) -> Dict[int, float]:
    """CPU seconds per live thread of *pid*.

    Read from ``schedstat``, whose first field is the thread's run time
    in nanoseconds: the clock ``time.thread_time()`` reads, so span CPU
    and thread CPU can be compared thread by thread.  (``stat`` counts
    clock ticks, too coarse for a thread that ran a few milliseconds.)
    """
    result = {}
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat", "r", encoding="ascii") as handle:
                result[int(tid)] = int(handle.read().split()[0]) / 1e9
        except FileNotFoundError:  # the thread exited while listing
            continue
    return result


def read_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def thread_delta(before: Dict[int, float], after: Dict[int, float]) -> Dict[int, float]:
    return {tid: cpu - before.get(tid, 0.0) for tid, cpu in after.items()}


# -- the server process --------------------------------------------------------


class ServerProcess:
    """One ``repro net serve <docs> --port 0 --warmup`` child pinned to one CPU.

    With *spans_path* the server runs under ``serve_traced.py``, which
    writes its spans there when it exits.
    """

    def __init__(self, inputs: Inputs, cpu: Optional[int], spans_path: Optional[Path] = None) -> None:
        args = ["net", "serve", *map(str, inputs.paths), "--port", "0", "--warmup",
                *inputs.server_flags]
        if spans_path is None:
            self.argv = [sys.executable, "-m", "repro", *args]
        else:
            self.argv = [sys.executable, str(HERE / "serve_traced.py"), str(spans_path), *args]
        self.cpu = cpu
        self.port = 0
        self.output: List[str] = []
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._proc: Optional[subprocess.Popen] = None
        self._reader: Optional[threading.Thread] = None

    @property
    def pid(self) -> int:
        assert self._proc is not None
        return self._proc.pid

    def start(self) -> float:
        """Spawn and wait for "listening on"; returns the set-up seconds."""
        started = time.perf_counter()
        self._proc = subprocess.Popen(
            self.argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        if self.cpu is not None:
            os.sched_setaffinity(self._proc.pid, {self.cpu})
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        deadline = started + LISTEN_TIMEOUT
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise RuntimeError("server did not start listening in time") from None
            if line is None:
                raise RuntimeError("server exited before listening:\n" + "".join(self.output))
            match = _LISTENING.search(line)
            if match:
                self.port = int(match.group(1))
                return time.perf_counter() - started

    def _pump(self) -> None:
        assert self._proc is not None and self._proc.stdout is not None
        for line in self._proc.stdout:
            self.output.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def cpu_seconds(self) -> float:
        return read_process_cpu(self.pid)

    def thread_cpu(self) -> Dict[int, float]:
        return read_thread_cpu(self.pid)

    def peak_rss_mb(self) -> float:
        return read_peak_rss_mb(self.pid)

    def stop(self) -> None:
        """SIGINT (graceful drain), then kill after :data:`STOP_TIMEOUT`."""
        proc = self._proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self._reader is not None:
            self._reader.join(timeout=STOP_TIMEOUT)
        if proc.stdout is not None:
            proc.stdout.close()
        self._proc = None


# -- fetches -------------------------------------------------------------------


class Sample(NamedTuple):
    """One fetch as the driver saw it (perf_counter seconds)."""

    due: float
    start: float
    end: float
    outcome: str           # "ok" | "mismatch" | "failed"
    payload: int
    rounds: int

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"


def check_payload(status: str, payload: Optional[bytes], expected: str) -> str:
    """``ok`` only for decoded bytes that hash to *expected*.

    Decoded bytes that hash differently are a ``mismatch`` (wrong
    output); any other status is ``failed``.  Both count as errors.
    """
    if status != "decoded" or payload is None:
        return "failed"
    return "ok" if hashlib.sha256(payload).hexdigest() == expected else "mismatch"


@dataclass
class Window:
    """Raw measurements of one recorded window."""

    samples: List[Sample]
    t0: float
    t1: float
    driver_cpu: float
    server_cpu: float
    server_threads: Dict[int, float]
    driver_threads: Dict[int, float]
    server_delta: Dict[str, int]
    prep_delta: Dict[str, int]
    sendq_high_water_bytes: int
    proxy_delta: Dict[str, int] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    @property
    def completed(self) -> int:
        return sum(1 for s in self.samples if s.ok)


class Load:
    """Closed- or open-loop fetches against one listening address."""

    def __init__(self, workload: Workload, inputs: Inputs, host: str, port: int, clients: int) -> None:
        from repro.prep import TransferSettings

        self.workload = workload
        self.inputs = inputs
        self.host = host
        self.port = port
        self.clients = clients
        self.settings = TransferSettings(use_cache=workload.use_cache)

    async def fetch(self, request: Request, due: float) -> Sample:
        from repro.net import NetClient
        from repro.net.wire import ConnectionLost, WireError

        start = time.perf_counter()
        client = NetClient(self.host, self.port, settings=self.settings, request=request.prep)
        try:
            result = await client.fetch(request.document)
        except (ConnectionLost, WireError, OSError):
            return Sample(due, start, time.perf_counter(), "failed", 0, 0)
        end = time.perf_counter()
        outcome = check_payload(
            result.status, result.payload, self.inputs.expected[(request.document, request.prep)]
        )
        size = len(result.payload) if result.payload is not None else 0
        return Sample(due, start, end, outcome, size, result.rounds)

    async def closed(self, duration: float) -> List[Sample]:
        """Each client fetches again as soon as its last fetch completed."""
        request = self.inputs.requests[0]
        stop_at = time.perf_counter() + duration
        samples: List[Sample] = []

        async def client_loop() -> None:
            due = time.perf_counter()
            while time.perf_counter() < stop_at:
                sample = await self.fetch(request, due)
                samples.append(sample)
                due = sample.end

        await asyncio.gather(*(client_loop() for _ in range(self.clients)))
        return samples

    async def open(self, requests: List[Request], shift: float) -> List[Sample]:
        """Start each fetch when due (offset − *shift* after now), whatever is in flight."""
        origin = time.perf_counter() - shift
        tasks = []
        for request in requests:
            due = origin + request.offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(self.fetch(request, due)))
        return list(await asyncio.gather(*tasks))

    async def phase(self, start: float, duration: float) -> List[Sample]:
        """The fetches of ``[start, start + duration)`` of the workload's timeline."""
        if self.workload.closed:
            return await self.closed(duration)
        chosen = [r for r in self.inputs.requests if start <= r.offset < start + duration]
        return await self.open(chosen, start)


async def stats(host: str, port: int) -> Tuple[Dict[str, object], int]:
    """The server's STATS snapshot and the bytes its reply put on the wire."""
    from repro.net import fetch_stats
    from repro.net.wire import MSG_STATS, encode_json

    snapshot = await fetch_stats(host, port)
    return snapshot, len(encode_json(MSG_STATS, snapshot))


SERVER_COUNTERS = ("bytes_sent", "batches_sent", "resumed_frames_skipped")
PREP_COUNTERS = ("cooked_hits", "cooked_misses")


async def record_window(
    load: Load, server: ServerProcess, start: float, duration: float, proxy=None
) -> Window:
    """Run ``[start, start + duration)`` of the timeline between two STATS reads."""
    before, reply_bytes = await stats(load.host, server.port)
    proxy_before = dict(proxy.stats) if proxy is not None else {}
    server_cpu0, driver_cpu0 = server.cpu_seconds(), time.process_time()
    server_threads0, driver_threads0 = server.thread_cpu(), read_thread_cpu(os.getpid())
    t0 = time.perf_counter()
    samples = await load.phase(start, duration)
    t1 = time.perf_counter()
    driver_cpu1, server_cpu1 = time.process_time(), server.cpu_seconds()
    server_threads1, driver_threads1 = server.thread_cpu(), read_thread_cpu(os.getpid())
    after, _ = await stats(load.host, server.port)
    server_delta = {k: after["server"][k] - before["server"][k] for k in SERVER_COUNTERS}
    # The first STATS reply is booked into bytes_sent after its snapshot.
    server_delta["bytes_sent"] -= reply_bytes
    prep_before, prep_after = before.get("prep", {}), after.get("prep", {})
    return Window(
        samples=samples,
        t0=t0,
        t1=t1,
        driver_cpu=driver_cpu1 - driver_cpu0,
        server_cpu=server_cpu1 - server_cpu0,
        server_threads=thread_delta(server_threads0, server_threads1),
        driver_threads=thread_delta(driver_threads0, driver_threads1),
        server_delta=server_delta,
        prep_delta={k: prep_after.get(k, 0) - prep_before.get(k, 0) for k in PREP_COUNTERS},
        sendq_high_water_bytes=after["server"]["sendq_high_water_bytes"],
        proxy_delta={k: v - proxy_before.get(k, 0) for k, v in (proxy.stats if proxy else {}).items()},
    )


# -- end-to-end metrics --------------------------------------------------------


def end_to_end(window: Window, peak_rss_mb: float, setup: List[float]) -> Dict[str, float]:
    """The user- and operator-visible metrics of one untraced window.

    The first three are BENCHMARK.json's gated metrics; the raw times of
    :data:`UNGATED` ride along.
    """
    samples = window.samples
    completed = window.completed
    if not samples or completed == 0:
        raise RuntimeError("no fetch completed in the window")
    latencies_ms = [(s.end - s.due) * 1000.0 for s in samples]
    payload = sum(s.payload for s in samples if s.ok)
    return {
        "wire_bytes_per_payload_byte": window.server_delta["bytes_sent"] / payload,
        "server_peak_rss_mb": peak_rss_mb,
        "setup_s": perfstats.percentile(setup, 50.0),
        "fetches_per_s": completed / window.wall,
        "p50_ms": perfstats.percentile(latencies_ms, 50.0),
        "p95_ms": perfstats.percentile(latencies_ms, 95.0),
        "server_cpu_ms_per_fetch": window.server_cpu * 1000.0 / completed,
        "driver_cpu_ms_per_fetch": window.driver_cpu * 1000.0 / completed,
    }


#: Raw times :func:`end_to_end` reports beside the BENCHMARK.json
#: metrics: (unit, better, bound).  On the reference host their
#: run-to-run spread over ten seeds reaches 20-40% (the host's CPUs run
#: about 1.6x slower in stretches of 0.5-10 s), so a gate on them would
#: reject at random; they are printed and judged by ``compare``, which
#: reports them "unresolved" while the spread exceeds the bound.
UNGATED = {
    "fetches_per_s": ("1/s", "higher", 0.10),
    "p50_ms": ("ms", "lower", 0.10),
    "p95_ms": ("ms", "lower", 0.15),
    "server_cpu_ms_per_fetch": ("ms", "lower", 0.10),
    "driver_cpu_ms_per_fetch": ("ms", "lower", 0.10),
}


def diagnostics(window: Window, closed: bool, calibration: Tuple[float, float],
                tightest_bound: float, shared_core: bool) -> Dict[str, object]:
    """Tail, error and validity record of one untraced window."""
    samples = window.samples
    latencies_ms = [(s.end - s.due) * 1000.0 for s in samples]
    lags_ms = [(s.start - s.due) * 1000.0 for s in samples]
    tail = perfstats.highest_percentile(len(samples))
    failed = len(samples) - window.completed
    drift_pct = (calibration[1] / calibration[0] - 1.0) * 100.0
    driver_busy = window.driver_cpu / window.wall
    reasons = []
    lag_p99 = perfstats.percentile(lags_ms, 99.0)
    if not closed and lag_p99 > MAX_LAG_P99_MS:
        reasons.append(f"open-loop lag p99 {lag_p99:.1f} ms > {MAX_LAG_P99_MS:g} ms")
    if not closed and driver_busy > MAX_DRIVER_BUSY:
        reasons.append(f"driver {driver_busy:.0%} busy on an open loop")
    if abs(drift_pct) > tightest_bound * 100.0:
        reasons.append(f"calibration drifted {drift_pct:+.1f}%")
    if shared_core:
        reasons.append("shared_core: server and driver share a CPU; not comparable")
    return {
        "attempted": len(samples),
        "failed": failed,
        "error_rate": failed / len(samples),
        "tail_percentile": tail,
        "tail_ms": perfstats.percentile(latencies_ms, tail) if tail else None,
        "lag_p99_ms": lag_p99,
        "driver_busy": driver_busy,
        "calibration_ms": list(calibration),
        "calibration_drift_pct": drift_pct,
        "valid": not reasons,
        "invalid_reasons": reasons,
    }
