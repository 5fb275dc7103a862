"""Multi-process serving: N worker processes behind one TCP address.

One asyncio loop is the scaling ceiling of :class:`NetServer` — a
single process can saturate at most one core.  :class:`WorkerPool`
lifts that ceiling the classic UNIX way: it spawns N worker processes
that each run a complete ``NetServer`` (own event loop, own
connections, own SLO window) on the **same** host:port.

Socket sharing, two strategies:

* **SO_REUSEPORT** (Linux, modern BSDs — the default whenever the
  platform advertises it): every worker binds its own listening
  socket with ``SO_REUSEPORT`` and the kernel load-balances incoming
  connections across them.  No accept coordination, no parent in the
  data path.  Worker 0 binds first (possibly port 0) and reports the
  concrete port; its siblings bind exactly that port.
* **shared listener fallback**: the parent binds one listening socket
  and passes its file descriptor to every worker over the control
  pipe (``SCM_RIGHTS``); the workers then share a single accept queue.

Cache sharing is the other half of the design: every worker's
:class:`~repro.prep.service.PreparationService` mounts the same
:class:`~repro.prep.diskstore.DiskCookedStore` root, so a document is
cooked **once cluster-wide** (the store's per-bundle file locks
single-flight concurrent misses across processes) and every other
worker serves the bundle from disk via ``mmap``.

Control plane: each worker owns one duplex pipe to the parent.

* worker → parent: ``("hello", pid)`` at startup, ``("ready", port)``
  once listening, ``("stats", snapshot)`` on request, and
  ``("stopped", snapshot)`` on exit;
* parent → worker: ``("stats",)`` and ``("drain", timeout)``.

``SIGTERM`` delivered to a worker triggers the same graceful drain as
an explicit ``("drain", ...)`` — stop accepting, let in-flight
transfers finish within the deadline, then exit with a final
snapshot.  :meth:`WorkerPool.stop` fans the drain out to every worker
and reaps the processes.

:func:`merge_snapshots` folds per-worker snapshots into the fleet
view that ``/stats.json`` and ``/metrics`` expose: summed counters, a
merged SLO whose latency bucket counts sum exactly (so the fleet
percentiles are those of the union of the workers' windows), and the
individual snapshots under ``"workers"``.
"""

from __future__ import annotations

import os
import signal
import socket
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.slo import slo_report
from repro.prep.request import PrepRequest
from repro.protocol import DEFAULT_MAX_ROUNDS, DEFAULT_ROUND_TIMEOUT
from repro.util.nossl import refuse_ssl

if TYPE_CHECKING:  # imported where a pool, a carousel or a server starts
    import multiprocessing

    from repro.broadcast.scheduler import CarouselScheduler
    from repro.net.server import NetServer

#: Does this platform support kernel accept balancing?
HAVE_REUSE_PORT = hasattr(socket, "SO_REUSEPORT")

#: Default seconds a drained worker may spend finishing transfers.
DEFAULT_DRAIN_TIMEOUT = 5.0

#: Seconds the parent waits for a worker to report ``ready``.
SPAWN_TIMEOUT = 60.0


@dataclass(frozen=True)
class WorkerConfig:
    """Everything needed to build one serving stack.

    A worker process builds its stack from it, and so does the
    single-process ``repro net serve``.  Must stay picklable
    (spawn-start): primitives, tuples, and the frozen
    :class:`PrepRequest` only.  Documents travel either as filesystem
    paths (re-read by each worker) or inline as
    ``(document_id, source, is_html)`` triples.
    """

    host: str = "127.0.0.1"
    port: int = 0
    paths: Tuple[str, ...] = ()
    documents: Tuple[Tuple[str, str, bool], ...] = ()
    html: bool = False
    default_request: Optional[PrepRequest] = None
    sc_budget_bytes: Optional[int] = None
    cooked_budget_bytes: Optional[int] = None
    #: Shared persistent cooked tier; None disables cross-worker reuse.
    disk_root: Optional[str] = None
    disk_budget_bytes: Optional[int] = None
    warmup: bool = False
    max_rounds: int = DEFAULT_MAX_ROUNDS
    round_timeout: float = DEFAULT_ROUND_TIMEOUT
    adaptive_gamma: bool = False
    gamma_floor: float = 1.0
    gamma_ceiling: float = 3.0
    #: Bind per-worker SO_REUSEPORT listeners (False → the parent
    #: passes one shared listening socket over the control pipe).
    reuse_port: bool = field(default_factory=lambda: HAVE_REUSE_PORT)


def build_worker_service(config: WorkerConfig):
    """The :class:`PreparationService` a serving stack cooks with.

    Registers every configured document (path documents are named by
    their file stem) and, with ``config.warmup``, cooks each once with
    the default request — into the shared disk tier when one is set.
    """
    from repro.prep.service import (
        DEFAULT_COOKED_BUDGET,
        DEFAULT_SC_BUDGET,
        PreparationService,
    )

    service = PreparationService(
        default_request=config.default_request,
        sc_budget_bytes=(
            config.sc_budget_bytes
            if config.sc_budget_bytes is not None
            else DEFAULT_SC_BUDGET
        ),
        cooked_budget_bytes=(
            config.cooked_budget_bytes
            if config.cooked_budget_bytes is not None
            else DEFAULT_COOKED_BUDGET
        ),
        disk_path=config.disk_root,
        disk_budget_bytes=config.disk_budget_bytes,
    )
    for path in config.paths:
        service.add_path(path, html=config.html)
    for document_id, source, html in config.documents:
        service.add_document(document_id, source, html=html)
    if config.warmup:
        service.warmup()
    return service


def build_server(
    config: WorkerConfig,
    store,
    *,
    carousel: Optional[CarouselScheduler] = None,
    sock: Optional[socket.socket] = None,
    worker_label: Optional[str] = None,
) -> NetServer:
    """The one :class:`NetServer` builder: *store* served per *config*.

    *store* is any ``prepare(document_id, request)`` store — usually
    :func:`build_worker_service`'s, or a broker adapter.  *sock* and
    *worker_label* are for pool members (a shared listener and the
    snapshot tag); *carousel* airs a broadcast channel beside unicast.
    """
    from repro.net.server import NetServer

    return NetServer(
        store,
        config.host,
        config.port,
        max_rounds=config.max_rounds,
        round_timeout=config.round_timeout,
        adaptive_gamma=config.adaptive_gamma,
        gamma_floor=config.gamma_floor,
        gamma_ceiling=config.gamma_ceiling,
        carousel=carousel,
        reuse_port=config.reuse_port,
        sock=sock,
        worker_label=worker_label,
    )


async def _worker_async(config: WorkerConfig, index: int, conn) -> None:
    """One worker's whole life: serve until drained, then report."""
    import asyncio

    server = build_server(
        config,
        build_worker_service(config),
        sock=None if config.reuse_port else _receive_listener(conn),
        worker_label=f"w{index}",
    )
    await server.start()
    conn.send(("ready", server.port))

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    drain_timeout: List[Optional[float]] = [None]

    def on_control() -> None:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            # Parent died or closed the pipe: drain and exit.
            stop.set()
            return
        kind = message[0]
        if kind == "stats":
            try:
                conn.send(("stats", server.stats_snapshot()))
            except (BrokenPipeError, OSError):
                stop.set()
        elif kind == "drain":
            drain_timeout[0] = message[1]
            stop.set()

    loop.add_reader(conn.fileno(), on_control)
    try:
        loop.add_signal_handler(signal.SIGTERM, stop.set)
    except (NotImplementedError, ValueError):  # pragma: no cover - platform
        pass
    try:
        await stop.wait()
    finally:
        loop.remove_reader(conn.fileno())
        await server.stop(drain_timeout[0])
        try:
            conn.send(("stopped", server.stats_snapshot()))
        except (BrokenPipeError, OSError):
            pass


def _receive_listener(conn) -> socket.socket:
    """Fallback path: adopt the parent's listening socket (SCM_RIGHTS)."""
    from multiprocessing import reduction

    fd = reduction.recv_handle(conn)
    sock = socket.socket(fileno=fd)
    return sock


def worker_main(config: WorkerConfig, index: int, conn) -> None:
    """Spawn entry point (top-level, hence picklable).

    A spawned child does not run ``repro.__main__``, so it refuses
    ``ssl`` here.  Unpickling this function imported this module, which
    therefore imports the server (and asyncio) only inside functions.
    """
    refuse_ssl()
    import asyncio
    import traceback

    conn.send(("hello", os.getpid()))
    try:
        asyncio.run(_worker_async(config, index, conn))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    except BaseException:
        # A worker that dies during startup would otherwise just close
        # the pipe; ship the traceback so the parent can say *why*.
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
        raise
    finally:
        conn.close()


class WorkerPool:
    """Parent-side lifecycle and telemetry for N serving workers."""

    def __init__(
        self,
        config: WorkerConfig,
        workers: int,
        *,
        spawn_timeout: float = SPAWN_TIMEOUT,
    ) -> None:
        import multiprocessing

        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.config = replace(
            config, reuse_port=config.reuse_port and HAVE_REUSE_PORT
        )
        self.workers = workers
        self.spawn_timeout = spawn_timeout
        self.host = config.host
        self.port = config.port
        self._ctx = multiprocessing.get_context("spawn")
        self._processes: List["multiprocessing.Process"] = []
        self._conns: List[Any] = []
        self._listener: Optional[socket.socket] = None
        self._final_snapshots: List[Optional[Dict[str, Any]]] = []

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn every worker and wait until all of them are listening."""
        if self._processes:
            raise RuntimeError("WorkerPool.start() called twice")
        if self.config.reuse_port:
            # Worker 0 resolves the concrete port (it may bind port 0);
            # its siblings then bind exactly that port — race-free, and
            # the parent never holds a listener the kernel could route
            # connections to.
            port = self._spawn_worker(0, self.config)
            self.port = port
            sibling_config = replace(self.config, port=port)
            for index in range(1, self.workers):
                self._spawn_worker(index, sibling_config)
        else:
            self._listener = socket.create_server(
                (self.config.host, self.config.port), backlog=128
            )
            self._listener.setblocking(False)
            self.port = self._listener.getsockname()[1]
            for index in range(self.workers):
                self._spawn_worker(index, self.config)

    def _spawn_worker(self, index: int, config: WorkerConfig) -> int:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(config, index, child_conn),
            name=f"net-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._processes.append(process)
        self._conns.append(parent_conn)
        self._final_snapshots.append(None)
        pid = self._expect(parent_conn, "hello", index)[1]
        if self._listener is not None:
            from multiprocessing import reduction

            reduction.send_handle(parent_conn, self._listener.fileno(), pid)
        port = self._expect(parent_conn, "ready", index)[1]
        return port

    def _expect(self, conn, kind: str, index: int):
        deadline = time.monotonic() + self.spawn_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not conn.poll(remaining):
                raise TimeoutError(
                    f"worker {index} did not report {kind!r} "
                    f"within {self.spawn_timeout:.0f}s"
                )
            try:
                message = conn.recv()
            except (EOFError, OSError) as exc:
                raise RuntimeError(f"worker {index} died during startup") from exc
            if message[0] == "error":
                raise RuntimeError(
                    f"worker {index} failed during startup:\n{message[1]}"
                )
            if message[0] == kind:
                return message

    def stop(
        self, drain_timeout: Optional[float] = DEFAULT_DRAIN_TIMEOUT
    ) -> List[Optional[Dict[str, Any]]]:
        """Fan out graceful drain, reap every worker, return final stats.

        Every worker gets ``("drain", timeout)``, then up to
        ``timeout + grace`` seconds to exit on its own; stragglers are
        terminated.  Returns one final snapshot per worker (``None``
        for a worker that died without reporting).
        """
        for conn in self._conns:
            try:
                conn.send(("drain", drain_timeout))
            except (BrokenPipeError, OSError):
                continue
        grace = (drain_timeout or 0.0) + 10.0
        deadline = time.monotonic() + grace
        for index, conn in enumerate(self._conns):
            budget = max(0.0, deadline - time.monotonic())
            try:
                while conn.poll(budget):
                    message = conn.recv()
                    if message[0] == "stopped":
                        self._final_snapshots[index] = message[1]
                        break
            except (EOFError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        for conn in self._conns:
            conn.close()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        return list(self._final_snapshots)

    def alive(self) -> int:
        return sum(1 for process in self._processes if process.is_alive())

    @property
    def pids(self) -> List[Optional[int]]:
        return [process.pid for process in self._processes]

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- telemetry ---------------------------------------------------------

    def worker_snapshots(
        self, timeout: float = 5.0
    ) -> List[Optional[Dict[str, Any]]]:
        """Ask every live worker for its current snapshot."""
        pending: List[int] = []
        for index, conn in enumerate(self._conns):
            if not self._processes[index].is_alive():
                continue
            try:
                conn.send(("stats",))
                pending.append(index)
            except (BrokenPipeError, OSError):
                continue
        snapshots: List[Optional[Dict[str, Any]]] = [None] * len(self._conns)
        deadline = time.monotonic() + timeout
        for index in pending:
            conn = self._conns[index]
            budget = max(0.0, deadline - time.monotonic())
            try:
                while conn.poll(budget):
                    message = conn.recv()
                    if message[0] == "stats":
                        snapshots[index] = message[1]
                        break
                    if message[0] == "stopped":
                        self._final_snapshots[index] = message[1]
                        snapshots[index] = message[1]
                        break
            except (EOFError, OSError):
                continue
        return snapshots

    def stats_snapshot(self, timeout: float = 5.0) -> Dict[str, Any]:
        """The merged fleet snapshot (``/stats.json`` shape)."""
        snapshots = [
            snapshot
            for snapshot in self.worker_snapshots(timeout)
            if snapshot is not None
        ]
        merged = merge_snapshots(snapshots)
        merged["pool"] = {
            "workers": self.workers,
            "alive": self.alive(),
            "reuse_port": self.config.reuse_port,
            "host": self.host,
            "port": self.port,
        }
        return merged


def merge_snapshots(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-worker snapshots into one fleet view.

    Counter families (``server``, ``outcomes``, ``prep``) are summed
    key-wise, so each worker's counts add up exactly.  The merged SLO
    is :func:`~repro.obs.slo.slo_report` over the workers' reports: their
    latency ``buckets`` sum, so the fleet p50/p95/p99 are the ones one
    tracker that saw every worker's window would report, and the count,
    errors, ``over_target`` and error budget are exact.  The untouched
    per-worker snapshots ride along under ``"workers"``.
    """
    merged: Dict[str, Any] = {
        "server": {},
        "outcomes": {},
        "active_connections": 0,
        "slo": {},
        "prep": {},
        "workers": snapshots,
    }
    for snapshot in snapshots:
        for section in ("server", "outcomes", "prep"):
            totals = merged[section]
            for key, value in snapshot.get(section, {}).items():
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value
        merged["active_connections"] += snapshot.get("active_connections", 0)

    reports = [s.get("slo") for s in snapshots if isinstance(s.get("slo"), dict)]
    if reports:
        parts = [(r["count"], r["errors"], r["over_target"],
                  r["mean_seconds"] * r["count"], r["buckets"]) for r in reports]
        merged["slo"] = slo_report(
            parts,
            window=sum(r["window"] for r in reports),
            error_budget=reports[0]["error_budget"],
            target_seconds=reports[0]["target_seconds"],
            total_observed=sum(r["total_observed"] for r in reports),
            total_errors=sum(r["total_errors"] for r in reports),
        )
    return merged
