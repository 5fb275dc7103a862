"""Asyncio TCP server streaming cooked documents to §4.2 clients.

:class:`NetServer` is the networked counterpart of the in-process
drivers: it frames cooked packets over real sockets and leaves every
protocol decision to the client-side
:class:`~repro.protocol.TransferEngine`.  What the server owns is the
I/O discipline the paper's broker needs on a weak link:

* one transfer session per connection, each with its **own engine
  instance** doing the server-side round bookkeeping (the engine's
  retransmission bound stops a client that asks for rounds forever);
* a **bounded send queue** per connection — the handler blocks when a
  slow reader stops draining the socket, so a stalled client holds at
  most ``send_queue_frames`` queued writes of server memory
  (backpressure, not buffering).  Each queued write is a coalesced
  batch of at most ``send_batch_bytes`` bytes — a whole round usually
  goes out as a handful of ``write``/``drain`` pairs over cached wire
  envelopes, with the byte bound ``send_queue_frames ×
  send_batch_bytes``;
* **idle/stall timeouts** — every wait on the peer is bounded by the
  shared :data:`repro.protocol.DEFAULT_ROUND_TIMEOUT`, and total
  rounds by :data:`repro.protocol.DEFAULT_MAX_ROUNDS`;
* **graceful drain** on shutdown: stop accepting, let in-flight
  transfers finish within a deadline, then cancel stragglers.

Resume support: a ``HELLO`` (or ``NEXT_ROUND``) listing cached intact
sequences makes the next round skip them — a reconnecting client only
pays for the packets it is missing.

Operational telemetry (``repro.obs.live``): every connection adopts
the client's wire-propagated :class:`~repro.obs.live.TraceContext`
(so server-side trace events share the client's transfer ID across
reconnects), keeps a bounded :class:`~repro.obs.flight.FlightRecorder`
ring that is dumped only on abnormal close, and feeds a rolling
:class:`~repro.obs.slo.SLOTracker`.  The always-on ``stats`` counters
and the per-outcome close counts are the server's only count of what
it served; :meth:`NetServer.stats_snapshot` exposes them — served
in-band via the ``STATS`` admin frame and over HTTP by
:class:`~repro.net.stats_http.StatsHTTP`.  With telemetry enabled the
server adds trace events, never a second counter.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Deque, Dict, Optional, Sequence, Set, Tuple, Union

from repro.coding.packets import MAX_SEQUENCE
from repro.net.wire import (
    MSG_DONE,
    MSG_ERROR,
    MSG_HELLO,
    MSG_MANIFEST,
    MSG_NEXT_ROUND,
    MSG_ROUND_END,
    MSG_STATS,
    ConnectionLost,
    WireError,
    decode_json,
    encode_json,
    read_expected,
)
from repro.obs.flight import DEFAULT_FLIGHT_EVENTS, FlightRecorder
from repro.obs.live import TraceContext
from repro.obs.runtime import OBS
from repro.obs.slo import SLOTracker
from repro.obs.trace import NET_CONN_CLOSE, NET_CONN_OPEN, NET_FLIGHT_DUMP, NET_ROUND_SERVED
from repro.prep.prepare import PreparedDocument, WireFrames
from repro.prep.request import DeliveryMode, PrepRequest
from repro.protocol import DEFAULT_MAX_ROUNDS, DEFAULT_ROUND_TIMEOUT, TransferEngine
from repro.util.validation import DocumentError

if TYPE_CHECKING:  # imported where a carousel or adaptive γ is configured
    from repro.analysis.ewma import AdaptiveRedundancyController
    from repro.broadcast.scheduler import CarouselScheduler

#: Connection outcomes that trigger a flight-recorder dump: the closes
#: where post-mortem evidence matters (the peer vanished, a wait timed
#: out, the stream broke, or the handler was killed mid-transfer).
ABNORMAL_OUTCOMES = frozenset({"timeout", "client_gone", "cancelled", "error"})

#: Outcomes folded into the SLO as successes: the client confirmed a
#: verdict with ``DONE`` (``decoded`` / ``early_stop`` / legacy
#: ``done``).
SLO_OK_OUTCOMES = frozenset({"decoded", "early_stop", "done"})

#: Outcomes folded into the SLO as errors.  ``client_gone`` is *not*
#: one: with reconnect-and-resume a severed connection is routine
#: weak-link behaviour, not a serving failure.
SLO_ERROR_OUTCOMES = frozenset({"timeout", "round_bound", "error", "failed"})

#: Every way a connection closes, counted in the snapshot's
#: ``outcomes`` section.  A ``DONE`` status outside this set counts as
#: ``other``, so a client cannot grow the table.
OUTCOMES = (
    "decoded", "early_stop", "failed", "done", "stats", "timeout",
    "client_gone", "cancelled", "error", "unknown_document", "bad_request",
    "bad_document", "round_bound", "other",
)

#: Abnormal-close dumps kept in memory for ``stats_snapshot``.
FLIGHT_DUMPS_KEPT = 32

#: Default coalescing bound for the vectored send path: frames of one
#: round are joined into socket writes of at most this many bytes.
#: Large enough to amortize the syscall + drain across a whole round
#: at the paper's geometries, small enough that a single batch never
#: dominates connection memory.
SEND_BATCH_BYTES = 64 * 1024

#: Per-client adaptive-γ controllers kept for reconnect continuity; a
#: client that resumes under the same transfer ID picks up its channel
#: estimate where the severed connection left it.
MAX_GAMMA_CONTROLLERS = 256

#: EWMA weight of each round's loss observation in the adaptive γ
#: controller.
GAMMA_WEIGHT = 0.3

#: Loss-rate prior of a client's γ controller before any feedback.
INITIAL_LOSS = 0.0


class DocumentStore:
    """In-memory store of pre-cooked documents.

    Satisfies the server's one store contract,
    ``prepare(document_id, request)``, by ignoring *request*: every
    client gets the bytes cooked before :meth:`add`.  An unknown
    document raises :class:`KeyError`, like every store.
    """

    def __init__(self) -> None:
        self._documents: Dict[str, PreparedDocument] = {}

    def add(self, prepared: PreparedDocument) -> None:
        self._documents[prepared.document_id] = prepared

    def prepare(
        self, document_id: str, request: Optional[PrepRequest] = None
    ) -> PreparedDocument:
        return self._documents[document_id]

    def __len__(self) -> int:
        return len(self._documents)


class _BoundedSender:
    """Bounded send queue + writer task for one connection.

    ``send`` blocks once ``capacity`` messages are queued and the
    writer task is stuck in ``drain()`` against a slow reader — that
    block *is* the backpressure propagating to the round streamer.
    After a write failure the queue keeps draining (discarding) so a
    blocked producer can never deadlock; the failure resurfaces on the
    next ``send``/``flush``.

    ``send_many`` is the vectored path: it coalesces prebuilt wire
    envelopes into writes of at most ``batch_bytes`` each — one queue
    slot / ``drain()`` per batch instead of per frame, and for a
    cooked document's envelope arena a batch of consecutive sequences
    is a zero-copy slice of it.  Backpressure is preserved: a batch
    is one queue item, so a slow reader still caps queued memory at
    roughly ``capacity × batch_bytes``.
    """

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        capacity: int,
        batch_bytes: int = SEND_BATCH_BYTES,
    ) -> None:
        self._writer = writer
        self._queue: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue(capacity)
        self._batch_bytes = batch_bytes
        self._failure: Optional[ConnectionLost] = None
        self.high_water = 0
        self.bytes_sent = 0
        self.queued_bytes = 0
        self.high_water_bytes = 0
        self._task = asyncio.ensure_future(self._run())

    async def _put(self, data: Union[bytes, memoryview]) -> None:
        await self._queue.put(data)
        self._account(data)

    def _account(self, data: Union[bytes, memoryview]) -> None:
        self.queued_bytes += len(data)
        if self.queued_bytes > self.high_water_bytes:
            self.high_water_bytes = self.queued_bytes
        depth = self._queue.qsize()
        if depth > self.high_water:
            self.high_water = depth

    async def send(self, data: Union[bytes, memoryview]) -> None:
        if self._failure is not None:
            raise self._failure
        await self._put(data)

    async def send_many(
        self, envelopes: WireFrames, sequences: Sequence[int]
    ) -> Tuple[int, int]:
        """Queue the envelopes of *sequences* as coalesced batches.

        Returns (batches, bytes).  *sequences* must be increasing.
        Every envelope of an arena has the same length, so a batch is
        the next ``batch_bytes // stride`` sequences (at least one),
        written to the socket with one ``write`` + ``drain``.  A batch
        of consecutive sequences is queued as one zero-copy span of
        the arena; only a batch broken by resume gaps is joined.
        """
        if self._failure is not None:
            raise self._failure
        per_batch = max(1, self._batch_bytes // envelopes.stride)
        batches = 0
        for start in range(0, len(sequences), per_batch):
            batch = sequences[start : start + per_batch]
            if batch[-1] - batch[0] == len(batch) - 1:
                data = envelopes.span(batch[0], batch[-1] + 1)
            else:
                data = b"".join(envelopes[sequence] for sequence in batch)
            await self._put(data)
            batches += 1
        return batches, len(sequences) * envelopes.stride

    def try_send(self, data: Union[bytes, memoryview]) -> bool:
        """Non-blocking send for the broadcast path.

        A full queue (or a dead socket) returns ``False`` instead of
        blocking: the carousel never waits for its slowest subscriber —
        a receiver that cannot drain simply misses the slot and picks
        the packet up on a later cycle, exactly the broadcast-medium
        semantics the erasure code is built for.
        """
        if self._failure is not None:
            return False
        try:
            self._queue.put_nowait(data)
        except asyncio.QueueFull:
            return False
        self._account(data)
        return True

    async def flush(self) -> None:
        """Wait until everything queued so far is on the socket."""
        await self._queue.join()
        if self._failure is not None:
            raise self._failure

    async def close(self) -> None:
        await self._queue.put(None)
        try:
            await self._task
        except asyncio.CancelledError:
            pass

    def abort(self) -> None:
        self._task.cancel()

    async def _run(self) -> None:
        while True:
            data = await self._queue.get()
            try:
                if data is None:
                    return
                if self._failure is None:
                    try:
                        self._writer.write(data)
                        await self._writer.drain()
                        self.bytes_sent += len(data)
                    except (ConnectionError, OSError) as exc:
                        self._failure = ConnectionLost(str(exc))
            finally:
                if data is not None:
                    self.queued_bytes -= len(data)
                self._queue.task_done()


def _parse_have(have: object, n: int) -> Set[int]:
    """The ``have`` of a HELLO or NEXT_ROUND: sequences below *n*.

    Absent or null is the empty set, a list keeps its in-range
    non-bool ints, anything else is a :class:`WireError`.
    """
    if have is None:
        return set()
    if not isinstance(have, list):
        raise WireError(f"have must be a list, got {type(have).__name__}")
    return {s for s in have if type(s) is int and 0 <= s < n}


def encode_manifest(
    document_id: str, prepared: PreparedDocument, skip: Set[int]
) -> bytes:
    """The ``MANIFEST`` envelope opening every unicast connection.

    Only ``skip`` differs per fetch; the content profile goes out as
    the wire string the prepared document encoded once, at cook time.
    """
    cooked = prepared.cooked
    return encode_json(
        MSG_MANIFEST,
        {
            "doc": document_id,
            "m": prepared.m,
            "n": prepared.n,
            "packet_size": cooked.packet_size,
            "original_size": cooked.original_size,
            "systematic": cooked.codec.systematic,
            "profile": prepared.profile_wire,
            "skip": sorted(skip),
        },
    )


class _ConnState:
    """Live bookkeeping for one connection, exposed by ``stats_snapshot``.

    Owns the connection's :class:`FlightRecorder` ring; everything else
    is a plain field the handler updates as the transfer progresses.
    """

    __slots__ = (
        "conn_id",
        "peer",
        "transfer_id",
        "span",
        "document",
        "rounds",
        "frames_sent",
        "resumed",
        "started",
        "sender",
        "flight",
        "gamma",
        "loss_estimate",
    )

    def __init__(self, conn_id: int, peer: str, flight_events: int) -> None:
        self.conn_id = conn_id
        self.peer = peer
        self.transfer_id: Optional[str] = None
        self.span: Optional[str] = None
        self.document: Optional[str] = None
        self.rounds = 0
        self.frames_sent = 0
        self.resumed = False
        self.started = time.monotonic()
        self.sender: Optional[_BoundedSender] = None
        self.flight = FlightRecorder(capacity=flight_events)
        #: Adaptive redundancy (None while fixed-γ serving).
        self.gamma: Optional[float] = None
        self.loss_estimate: Optional[float] = None

    def describe(self) -> Dict[str, Any]:
        """JSON-safe live view (queue depth read off the sender)."""
        sender = self.sender
        return {
            "conn_id": self.conn_id,
            "peer": self.peer,
            "transfer_id": self.transfer_id,
            "span": self.span,
            "document": self.document,
            "rounds": self.rounds,
            "frames_sent": self.frames_sent,
            "resumed": self.resumed,
            "age_seconds": round(time.monotonic() - self.started, 6),
            "sendq_depth": sender._queue.qsize() if sender is not None else 0,
            "sendq_bytes": sender.queued_bytes if sender is not None else 0,
            "bytes_sent": sender.bytes_sent if sender is not None else 0,
            "flight_events": len(self.flight),
            "gamma": round(self.gamma, 4) if self.gamma is not None else None,
            "loss_estimate": (
                round(self.loss_estimate, 4)
                if self.loss_estimate is not None
                else None
            ),
        }


class NetServer:
    """Serve §4.2 document transfers over TCP; see the module docstring.

    Parameters
    ----------
    store:
        ``prepare(document_id, request) -> PreparedDocument`` provider,
        called off the event loop with the client's ``HELLO`` ``prep``
        parameters (``None`` when it sent none).  An unknown document
        raises :class:`KeyError`.  :class:`DocumentStore` serves
        pre-cooked documents; :class:`~repro.prep.service.PreparationService`
        cooks on demand.
    host, port:
        Bind address; port 0 picks a free port (read :attr:`port`
        after :meth:`start`).
    max_rounds:
        Server-side retransmission bound per connection.
    round_timeout:
        Wall-clock bound on every wait for the peer (seconds).
    send_queue_frames:
        Capacity of the per-connection bounded send queue (measured in
        queued writes; one write is one coalesced batch).
    send_batch_bytes:
        Coalescing bound: the frames of each round are joined into
        socket writes of at most this many bytes (at least one frame
        each, so ``1`` writes one frame per syscall — the bytes on the
        wire are identical either way).
    flight_events:
        Ring capacity of each connection's flight recorder.
    adaptive_gamma:
        When True, the server estimates each client's per-round loss
        rate from the ``NEXT_ROUND`` feedback (EWMA over
        ``frames lost / frames sent``) and sizes every round as
        ``need × γ`` with γ chosen by
        :class:`~repro.analysis.ewma.AdaptiveRedundancyController` —
        the paper's §4.2 adaptive-γ suggestion applied per client.
        Clean channels converge toward ``gamma_floor`` (fewer
        redundant frames per round); bursty ones push γ up toward
        ``gamma_ceiling``.  Controllers are keyed by transfer ID, so a
        reconnecting client keeps its channel estimate.
    gamma_floor, gamma_ceiling:
        Clamp on the adaptive γ (floor must be ≥ 1).  The EWMA weight
        and loss prior are :data:`GAMMA_WEIGHT` and
        :data:`INITIAL_LOSS`.
    carousel:
        Optional :class:`~repro.broadcast.CarouselScheduler`.  When
        given, the server runs a broadcast channel next to the unicast
        round protocol: a background task cycles the carousel's air
        index + tagged frame envelopes and fans every slot out to all
        subscribed connections (clients whose ``HELLO`` ``prep`` asks
        for ``delivery=carousel``).  Fan-out is non-blocking — a
        subscriber whose send queue is full misses the slot and
        recovers on a later cycle — so one slow reader never stalls
        the shared stream.  Cycles air back-to-back, yielding to the
        event loop each slot.
    """

    def __init__(
        self,
        store,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        round_timeout: float = DEFAULT_ROUND_TIMEOUT,
        send_queue_frames: int = 32,
        send_batch_bytes: int = SEND_BATCH_BYTES,
        flight_events: int = DEFAULT_FLIGHT_EVENTS,
        adaptive_gamma: bool = False,
        gamma_floor: float = 1.0,
        gamma_ceiling: float = 3.0,
        carousel: Optional[CarouselScheduler] = None,
        reuse_port: bool = False,
        sock=None,
        worker_label: Optional[str] = None,
    ) -> None:
        if round_timeout <= 0:
            raise ValueError(f"round_timeout must be positive, got {round_timeout}")
        if send_queue_frames < 1:
            raise ValueError(
                f"send_queue_frames must be >= 1, got {send_queue_frames}"
            )
        if send_batch_bytes < 1:
            raise ValueError(
                f"send_batch_bytes must be >= 1, got {send_batch_bytes}"
            )
        self.store = store
        self.host = host
        self.port = port
        self.max_rounds = max_rounds
        self.round_timeout = round_timeout
        self.send_queue_frames = send_queue_frames
        self.send_batch_bytes = send_batch_bytes
        self.flight_events = flight_events
        self.adaptive_gamma = adaptive_gamma
        self.gamma_floor = gamma_floor
        self.gamma_ceiling = gamma_ceiling
        self.carousel = carousel
        #: conn_id → sender of connections subscribed to the carousel.
        self._subscribers: Dict[int, _BoundedSender] = {}
        self._carousel_task: Optional[asyncio.Task] = None
        self._carousel_wakeup: Optional[asyncio.Event] = None
        #: With ``reuse_port`` each worker process binds its own
        #: ``SO_REUSEPORT`` listener on the same address and the kernel
        #: load-balances accepted connections across them; *sock* is
        #: the fallback for platforms without it (one pre-bound listen
        #: socket shared across workers).  *worker_label* tags this
        #: process's snapshot (and its labelled ``/metrics`` series)
        #: inside a multi-worker deployment.
        self.reuse_port = reuse_port
        self._preopened_sock = sock
        self.worker_label = worker_label
        if adaptive_gamma:
            from repro.analysis.ewma import AdaptiveRedundancyController

            # Validate the knobs eagerly with a throwaway controller so
            # misconfiguration fails at construction, not mid-transfer.
            AdaptiveRedundancyController(
                weight=GAMMA_WEIGHT,
                initial_alpha=INITIAL_LOSS,
                floor=gamma_floor,
                ceiling=gamma_ceiling,
            )
        #: transfer_id → per-client γ controller, LRU-bounded.
        self._gamma_controllers: "OrderedDict[str, AdaptiveRedundancyController]" = (
            OrderedDict()
        )
        self.slo = SLOTracker()
        #: Most recent abnormal-close flight dumps, newest last.
        self.flight_dumps: Deque[Dict[str, Any]] = deque(maxlen=FLIGHT_DUMPS_KEPT)
        self._server: Optional[asyncio.AbstractServer] = None
        #: The one thread prepares run on (see :meth:`start`).
        self._prep_executor: Optional[ThreadPoolExecutor] = None
        self._connections: Set[asyncio.Task] = set()
        self._live: Dict[int, _ConnState] = {}
        self._conn_seq = 0
        self._draining = False
        #: Always-on counters: the only count of what the server served.
        self.stats: Dict[str, int] = {
            "connections": 0,
            "completed": 0,
            "errors": 0,
            "rounds_served": 0,
            "frames_sent": 0,
            "bytes_sent": 0,
            "batches_sent": 0,
            "resumed_frames_skipped": 0,
            "sendq_high_water": 0,
            "sendq_high_water_bytes": 0,
            "stats_requests": 0,
            "flight_dumps": 0,
            "adaptive_rounds": 0,
            "adaptive_frames_saved": 0,
            "broadcast_subscriptions": 0,
            "broadcast_slots_dropped": 0,
        }
        #: Connections closed, per outcome (see :data:`OUTCOMES`).
        self.outcomes: Dict[str, int] = dict.fromkeys(OUTCOMES, 0)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("NetServer.start() called twice")
        if self._preopened_sock is not None:
            self._server = await asyncio.start_server(
                self._accept, sock=self._preopened_sock
            )
        elif self.reuse_port:
            self._server = await asyncio.start_server(
                self._accept, self.host, self.port, reuse_port=True
            )
        else:
            self._server = await asyncio.start_server(
                self._accept, self.host, self.port
            )
        self.port = self._server.sockets[0].getsockname()[1]
        # One thread cooks: the cook holds the GIL, so more threads
        # would only hold more stacks and interleave cooks.
        self._prep_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-prep"
        )
        if self.carousel is not None:
            self.carousel.build()
            self._carousel_wakeup = asyncio.Event()
            self._carousel_task = asyncio.ensure_future(self._run_carousel())

    async def stop(self, drain_timeout: Optional[float] = None) -> None:
        """Graceful drain: refuse new work, finish in-flight transfers.

        Waits up to *drain_timeout* seconds (default: the round
        timeout) for active connections, then cancels whatever is
        left.  Safe to call twice.
        """
        if self._server is None:
            return
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        if drain_timeout is None:
            drain_timeout = self.round_timeout
        active = {task for task in self._connections if not task.done()}
        if active and drain_timeout > 0:
            await asyncio.wait(active, timeout=drain_timeout)
        for task in self._connections:
            if not task.done():
                task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        if self._carousel_task is not None:
            self._carousel_task.cancel()
            try:
                await self._carousel_task
            except asyncio.CancelledError:
                pass
            self._carousel_task = None
        executor, self._prep_executor = self._prep_executor, None
        if executor is not None:
            # A cancelled fetch's cook may still run: let it end without
            # blocking the loop, then join the idle thread.
            await asyncio.wrap_future(executor.submit(int))
            executor.shutdown()

    def kill(self) -> None:
        """Hard stop: drop the listener and abort every connection now.

        The chaos-test counterpart of :meth:`stop` — clients see a
        reset mid-round, exactly like a crashed broker.
        """
        if self._server is not None:
            self._server.close()
            self._server = None
        if self._carousel_task is not None:
            self._carousel_task.cancel()
            self._carousel_task = None
        for task in self._connections:
            task.cancel()
        if self._prep_executor is not None:
            self._prep_executor.shutdown(wait=False, cancel_futures=True)
            self._prep_executor = None

    @property
    def active_connections(self) -> int:
        return sum(1 for task in self._connections if not task.done())

    async def __aenter__(self) -> "NetServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- connection handling -----------------------------------------------

    def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        if self._draining:
            writer.close()
            return
        task = asyncio.ensure_future(self._handle(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats["connections"] += 1
        self._conn_seq += 1
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        state = _ConnState(self._conn_seq, peer, self.flight_events)
        self._live[state.conn_id] = state
        sender = _BoundedSender(
            writer, self.send_queue_frames, self.send_batch_bytes
        )
        state.sender = sender
        outcome = "error"
        try:
            outcome = await self._serve_transfer(reader, sender, state)
        except asyncio.TimeoutError:
            outcome = "timeout"
            state.flight.record("timeout", waited=self.round_timeout)
        except ConnectionLost as exc:
            outcome = "client_gone"
            state.flight.record("client_gone", detail=str(exc))
        except WireError as exc:
            try:
                await self._refuse(sender, state, "wire_error", str(exc), detail=str(exc))
            except ConnectionLost:
                pass
        except asyncio.CancelledError:
            outcome = "cancelled"
            state.flight.record("cancelled")
            sender.abort()
            self._finish(state, outcome)
            raise
        finally:
            self.stats["bytes_sent"] += sender.bytes_sent
            if sender.high_water > self.stats["sendq_high_water"]:
                self.stats["sendq_high_water"] = sender.high_water
            if sender.high_water_bytes > self.stats["sendq_high_water_bytes"]:
                self.stats["sendq_high_water_bytes"] = sender.high_water_bytes
            if outcome != "cancelled":
                self._finish(state, outcome)
            await sender.close()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _refuse(
        self, sender: _BoundedSender, state: _ConnState, event: str, message: str,
        **detail: Any,
    ) -> str:
        """Answer ``ERROR``, count it, record flight *event*; return *event*."""
        self.stats["errors"] += 1
        state.flight.record(event, **detail)
        await sender.send(encode_json(MSG_ERROR, {"message": message}))
        await sender.flush()
        return event

    def _finish(self, state: _ConnState, outcome: str) -> None:
        """Close out one connection: outcome count, flight dump, SLO, trace."""
        self._live.pop(state.conn_id, None)
        self.outcomes[outcome if outcome in self.outcomes else "other"] += 1
        elapsed = time.monotonic() - state.started
        if outcome in ABNORMAL_OUTCOMES:
            dump = state.flight.dump(outcome)
            dump.update(
                conn_id=state.conn_id,
                peer=state.peer,
                transfer_id=state.transfer_id,
                document=state.document,
                elapsed=round(elapsed, 6),
            )
            self.flight_dumps.append(dump)
            self.stats["flight_dumps"] += 1
            if OBS.enabled:
                OBS.trace.emit(
                    NET_FLIGHT_DUMP,
                    transfer_id=state.transfer_id,
                    reason=outcome,
                    events=dump["recorded"],
                    dropped=dump["dropped"],
                )
        if outcome in SLO_OK_OUTCOMES:
            self.slo.observe(elapsed, ok=True)
        elif outcome in SLO_ERROR_OUTCOMES:
            self.slo.observe(elapsed, ok=False)
        if OBS.enabled and outcome != "stats":
            OBS.trace.emit(
                NET_CONN_CLOSE,
                transfer_id=state.transfer_id,
                outcome=outcome,
                rounds=state.rounds,
                frames=state.frames_sent,
                elapsed=round(elapsed, 6),
            )

    async def _serve_transfer(
        self, reader: asyncio.StreamReader, sender: _BoundedSender, state: _ConnState
    ) -> str:
        msg_type, body = await asyncio.wait_for(
            read_expected(reader, MSG_HELLO, MSG_STATS), self.round_timeout
        )
        if msg_type == MSG_STATS:
            # Admin probe: answer with one snapshot and hang up.
            self.stats["stats_requests"] += 1
            await sender.send(encode_json(MSG_STATS, self.stats_snapshot()))
            await sender.flush()
            return "stats"
        hello = decode_json(body)
        document_id = str(hello.get("doc", ""))
        state.document = document_id
        trace = TraceContext.from_wire(hello.get("trace"))
        if trace is not None:
            state.transfer_id = trace.transfer_id
            state.span = trace.span_id
        else:
            # Legacy client: correlate under a server-local ID.
            state.transfer_id = f"conn{state.conn_id}"
        have = _parse_have(hello.get("have"), MAX_SEQUENCE + 1)
        state.resumed = bool(have)
        state.flight.record("hello", doc=document_id, have=len(have), span=state.span)
        if OBS.enabled:
            OBS.trace.emit(
                NET_CONN_OPEN,
                transfer_id=state.transfer_id,
                document=document_id,
                span=state.span,
                resumed=state.resumed,
            )
        try:
            prep_field = hello.get("prep")
            request = (
                PrepRequest.from_wire(prep_field) if prep_field is not None else None
            )
            if request is not None and request.delivery is DeliveryMode.CAROUSEL:
                if self.carousel is None:
                    raise ValueError(
                        "carousel delivery not enabled on this server"
                    )
                return await self._serve_carousel(reader, sender, state)
            # The store cooks off the event loop, on the server's one
            # prep thread: a cold cook runs the full pipeline + encode,
            # and prepares run one at a time.
            prepared = await asyncio.get_running_loop().run_in_executor(
                self._prep_executor, self.store.prepare, document_id, request
            )
        except KeyError:
            return await self._refuse(
                sender, state, "unknown_document",
                f"unknown document {document_id!r}", doc=document_id,
            )
        except ValueError as exc:
            # Malformed prep parameters, a delivery mode the server
            # does not offer, or a request the document cannot satisfy
            # (e.g. a query measure without a query).
            return await self._refuse(
                sender, state, "bad_request",
                f"bad prep parameters: {exc}", detail=str(exc),
            )
        except DocumentError as exc:
            # The registered source does not parse (malformed markup).
            return await self._refuse(
                sender, state, "bad_document",
                f"document {document_id!r} cannot be prepared: {exc}",
                detail=str(exc),
            )
        skip = {sequence for sequence in have if sequence < prepared.n}

        # Per-connection engine: the server never sees frame outcomes
        # (the client decides), so its engine instance only does the
        # round bookkeeping — and enforces the retransmission bound
        # against clients that keep asking.
        engine = TransferEngine(
            prepared.m,
            prepared.n,
            max_rounds=self.max_rounds,
            document_id=document_id,
        )
        engine.start()

        await sender.send(encode_manifest(document_id, prepared, skip))
        state.flight.record("manifest", m=prepared.m, n=prepared.n, skip=len(skip))

        controller: Optional[AdaptiveRedundancyController] = None
        if self.adaptive_gamma:
            controller = self._gamma_controller(state.transfer_id, prepared.m)

        # The envelopes are the cooked document's arena, serialized
        # once at cook time: every round below is pure buffer handoff.
        envelopes = prepared.wire_frames()
        while True:
            missing = [
                sequence
                for sequence in range(len(envelopes))
                if sequence not in skip
            ]
            self.stats["resumed_frames_skipped"] += len(envelopes) - len(missing)
            if controller is not None:
                # Adaptive round sizing: the client still needs
                # ``need`` intact packets to decode; stream
                # ``need × γ`` of its missing sequences (in sequence
                # order, preserving the content-profile prefix) and
                # hold the rest back for later rounds.
                gamma = controller.gamma()
                need = prepared.m - len(skip)
                if 0 < need <= len(missing):
                    send_count = min(
                        len(missing), max(need, math.ceil(need * gamma))
                    )
                else:
                    send_count = len(missing)
                saved = len(missing) - send_count
                state.gamma = gamma
                self.stats["adaptive_rounds"] += 1
                self.stats["adaptive_frames_saved"] += saved
                to_send = missing[:send_count]
            else:
                to_send = missing
            sent = len(to_send)
            batches, _ = await sender.send_many(envelopes, to_send)
            self.stats["batches_sent"] += batches
            self.stats["frames_sent"] += sent
            self.stats["rounds_served"] += 1
            state.rounds += 1
            state.frames_sent += sent
            state.flight.record(
                "round", round=engine.round, sent=sent, skipped=len(skip)
            )
            if OBS.enabled:
                OBS.trace.emit(
                    NET_ROUND_SERVED,
                    transfer_id=state.transfer_id,
                    round=engine.round,
                    sent=sent,
                    skipped=len(skip),
                )
            await sender.send(
                encode_json(MSG_ROUND_END, {"round": engine.round, "sent": sent})
            )
            await sender.flush()

            msg_type, body = await asyncio.wait_for(
                read_expected(reader, MSG_NEXT_ROUND, MSG_DONE), self.round_timeout
            )
            if msg_type == MSG_DONE:
                self.stats["completed"] += 1
                status = str(decode_json(body).get("status", "done"))
                state.flight.record("done", status=status)
                return status
            request = decode_json(body)
            new_skip = _parse_have(request.get("have"), prepared.n)
            if controller is not None and sent > 0:
                # The round's loss observable: frames sent minus
                # sequences that newly became intact at the client.
                gained = len(new_skip - skip)
                lost = min(max(sent - gained, 0), sent)
                state.loss_estimate = controller.record_transfer(lost, sent)
            skip = new_skip
            state.flight.record("next_round", have=len(skip))
            if engine.on_round_ended(carried=True) is not None:
                # Server-side retransmission bound: refuse more rounds.
                return await self._refuse(
                    sender, state, "round_bound",
                    f"retransmission bound {self.max_rounds} exhausted",
                    bound=self.max_rounds,
                )

    # -- broadcast channel ---------------------------------------------------

    async def _serve_carousel(
        self, reader: asyncio.StreamReader, sender: _BoundedSender, state: _ConnState
    ) -> str:
        """Subscribe one connection to the shared carousel stream.

        No manifest and no per-client rounds: the connection simply
        joins the fan-out set mid-cycle (its first complete picture of
        the program is the next air index — at most one period away,
        the tuning-latency bound) and the handler waits for the
        client's ``DONE``.  The wait is bounded by the usual round
        timeout, so an abandoned subscription cannot pin the fan-out
        set.
        """
        assert self.carousel is not None
        self.stats["broadcast_subscriptions"] += 1
        self._subscribers[state.conn_id] = sender
        if self._carousel_wakeup is not None:
            self._carousel_wakeup.set()
        state.flight.record("subscribe", doc=state.document)
        try:
            _, body = await asyncio.wait_for(
                read_expected(reader, MSG_DONE), self.round_timeout
            )
            self.stats["completed"] += 1
            status = str(decode_json(body).get("status", "done"))
            state.flight.record("done", status=status)
            return status
        finally:
            self._subscribers.pop(state.conn_id, None)

    async def _run_carousel(self) -> None:
        """The air task: cycle the carousel into every subscriber's queue.

        Idles (no CPU, no counters) while nobody is subscribed; each
        slot is offered to every subscriber with the non-blocking
        ``try_send``, so the stream's pace is set by the scheduler —
        never by the slowest reader.  One ``sleep`` per slot yields to
        the writer tasks draining the queues.
        """
        carousel = self.carousel
        assert carousel is not None and self._carousel_wakeup is not None
        cycle = 0
        while True:
            if not self._subscribers:
                self._carousel_wakeup.clear()
                await self._carousel_wakeup.wait()
            for kind, payload in carousel.air_cycle(cycle):
                envelope = payload.encode() if kind == "index" else payload
                for sub in list(self._subscribers.values()):
                    if not sub.try_send(envelope):
                        self.stats["broadcast_slots_dropped"] += 1
                await asyncio.sleep(0)
            cycle += 1

    def _gamma_controller(
        self, transfer_id: Optional[str], m_hint: int
    ) -> AdaptiveRedundancyController:
        """The per-client γ controller, created on first sight.

        Keyed by transfer ID so reconnect-and-resume continues the
        same channel estimate; LRU-bounded at
        :data:`MAX_GAMMA_CONTROLLERS`.
        """
        key = transfer_id or "?"
        controller = self._gamma_controllers.get(key)
        if controller is not None:
            self._gamma_controllers.move_to_end(key)
            return controller
        from repro.analysis.ewma import AdaptiveRedundancyController

        controller = AdaptiveRedundancyController(
            m_hint=max(1, m_hint),
            weight=GAMMA_WEIGHT,
            initial_alpha=INITIAL_LOSS,
            floor=self.gamma_floor,
            ceiling=self.gamma_ceiling,
        )
        self._gamma_controllers[key] = controller
        while len(self._gamma_controllers) > MAX_GAMMA_CONTROLLERS:
            self._gamma_controllers.popitem(last=False)
        return controller

    # -- exposition ---------------------------------------------------------

    def stats_snapshot(self) -> Dict[str, Any]:
        """One JSON-safe operational snapshot of the whole server.

        Served verbatim over the ``STATS`` wire frame and as
        ``/stats.json`` by :class:`~repro.net.stats_http.StatsHTTP`.
        """
        snapshot: Dict[str, Any] = {
            "server": dict(self.stats),
            "active_connections": self.active_connections,
            **({"worker": self.worker_label} if self.worker_label else {}),
            "outcomes": dict(self.outcomes),
            "slo": self.slo.report(),
            "connections": [
                state.describe() for state in self._live.values()
            ],
            "flight": {
                "dumps": self.stats["flight_dumps"],
                "kept": len(self.flight_dumps),
                "recent": list(self.flight_dumps),
            },
            "adaptive": {
                "enabled": self.adaptive_gamma,
                "clients": len(self._gamma_controllers),
                "rounds": self.stats["adaptive_rounds"],
                "frames_saved": self.stats["adaptive_frames_saved"],
                "floor": self.gamma_floor,
                "ceiling": self.gamma_ceiling,
            },
        }
        if self.carousel is not None:
            snapshot["broadcast"] = {
                "enabled": True,
                "schedule": self.carousel.schedule,
                "subscribers": len(self._subscribers),
                "subscriptions": self.stats["broadcast_subscriptions"],
                "slots_dropped": self.stats["broadcast_slots_dropped"],
                **self.carousel.stats(),
            }
        prep_stats = getattr(self.store, "stats", None)
        if isinstance(prep_stats, dict):
            snapshot["prep"] = dict(prep_stats)
        cache_info = getattr(self.store, "cache_info", None)
        if callable(cache_info):
            snapshot["prep_cache"] = cache_info()
        return snapshot
