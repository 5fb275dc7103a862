"""Asyncio client: fetch one document over TCP, §4.2 semantics intact.

:class:`NetClient` is the fourth driver of the sans-IO
:class:`~repro.protocol.TransferEngine` — the first to run it against
a real socket.  One fetch loop owns every piece of I/O: dialing, the
``HELLO``, reading envelopes, writing replies, ``DONE``, the reconnect
budget and closing.  It hands each envelope to a sans-IO *delivery
mode* that never sees a socket:

* :class:`_Unicast` — the per-client round protocol.  Frames arrive
  as wire bytes, the frame CRC decides intact/corrupt, ``ROUND_END``
  accounting decides lost; the engine decides everything else,
  exactly as in the in-process drivers.
* :class:`_Carousel` — a subscription to the server's broadcast
  carousel, fed to a :class:`~repro.broadcast.CarouselReceiver`.

What the socket adds is *disconnection*, and the client answers it
with the paper's caching policy: when the connection drops (reset,
EOF, or a read that outlives the round timeout), the intact packets
are stored in the :class:`~repro.transport.cache.PacketCache`, the
interrupted round is reported to the engine as a stall with
``carried=True``, and the client redials — sending the cached
sequences in ``HELLO`` so the server's next round skips them.  A
resumed transfer therefore decodes from ``M`` intact packets
accumulated *across connections*, byte-identical to an uninterrupted
one.  Without a cache the policy is NoCaching: a drop starts over,
like a browser reload.  A carousel subscription keeps its receiver's
intact set across redials.

The server is not trusted: a ``ROUND_END`` whose ``sent`` is not an
int in ``0..n``, a malformed air index and a manifest whose content
profile does not decode to ``m`` finite shares are :class:`WireError`,
so one message can make at most ``n`` frame events.

Each fetch mints a :class:`~repro.obs.live.TraceContext` and sends it
in every ``HELLO``, so the server's ``net_*`` trace events and the
client's protocol events share one transfer ID across every
reconnect of the same logical fetch.  :func:`fetch_stats` speaks the
``STATS`` admin frame for operational snapshots.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.broadcast import AirIndex, CarouselReceiver
from repro.coding.packets import decode_frame
from repro.prep.prepare import decode_profile
from repro.prep.reconstruct import reconstruct_payload
from repro.net.wire import (
    MSG_AIR_INDEX,
    MSG_BCAST_FRAME,
    MSG_DONE,
    MSG_FRAME,
    MSG_HELLO,
    MSG_MANIFEST,
    MSG_NEXT_ROUND,
    MSG_ROUND_END,
    MSG_STATS,
    ConnectionLost,
    WireError,
    check_expected,
    decode_json,
    encode_json,
    read_expected,
    read_message,
)
from repro.obs.live import TraceContext
from repro.obs.runtime import OBS
from repro.prep.request import DeliveryMode, PrepRequest, TransferSettings
from repro.protocol import (
    DEFAULT_ROUND_TIMEOUT,
    Decoded,
    EarlyStop,
    Effect,
    TelemetryBridge,
    TransferEngine,
)
from repro.transport.cache import NullCache, PacketCache

#: Latency buckets for the ``net.fetch_seconds`` histogram (wall-clock
#: seconds on a loopback or LAN path, not simulated channel time).
FETCH_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

#: What a delivery mode returns per envelope: the verdict (``None``
#: while the transfer runs) and the reply to write, if any.
Step = Tuple[Optional[Effect], Optional[bytes]]


class NetFetchResult(NamedTuple):
    """Outcome of one networked document fetch."""

    document_id: str
    status: str                # "decoded" | "early_stop" | "failed"
    success: bool
    terminated_early: bool
    rounds: int
    frames_received: int       # frames read off the socket (any validity)
    reconnects: int            # connections re-dialed after a drop
    elapsed: float             # wall-clock seconds, first dial to verdict
    content_received: float
    payload: Optional[bytes]   # reconstructed document (None unless decoded)


class _Manifest(NamedTuple):
    m: int
    n: int
    packet_size: int
    original_size: int
    systematic: bool
    profile: Optional[Tuple[float, ...]]


def _status(verdict: Effect) -> str:
    if isinstance(verdict, Decoded):
        return "decoded"
    return "early_stop" if isinstance(verdict, EarlyStop) else "failed"


def _parse_manifest(
    fields: Dict[str, object], relevance_threshold: Optional[float]
) -> _Manifest:
    try:
        m = int(fields["m"])  # type: ignore[arg-type]
        n = int(fields["n"])  # type: ignore[arg-type]
        packet_size = int(fields["packet_size"])  # type: ignore[arg-type]
        original_size = int(fields["original_size"])  # type: ignore[arg-type]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise WireError(f"malformed manifest: {exc}") from None
    if not (1 <= m <= n):
        raise WireError(f"malformed manifest geometry m={m}, n={n}")
    profile: Optional[Tuple[float, ...]] = None
    if "profile" in fields:
        try:
            profile = decode_profile(fields["profile"], m)
        except ValueError as exc:
            raise WireError(f"malformed manifest: {exc}") from None
    if relevance_threshold is not None and profile is None:
        raise WireError("manifest carries no usable content profile")
    return _Manifest(
        m=m,
        n=n,
        packet_size=packet_size,
        original_size=original_size,
        systematic=bool(fields.get("systematic", False)),
        profile=profile,
    )


class _Unicast:
    """Sans-IO unicast delivery: the per-client round protocol.

    Holds the engine, the intact set, the manifest pinned by the first
    connection, and the cache policy.  Every connection starts with a
    ``MANIFEST``; then frames and round boundaries until a verdict.
    """

    def __init__(
        self,
        document_id: str,
        bridge: TelemetryBridge,
        cache: PacketCache,
        *,
        relevance_threshold: Optional[float],
        max_rounds: int,
    ) -> None:
        self.document_id = document_id
        self.bridge = bridge
        self.cache = cache
        self.relevance_threshold = relevance_threshold
        self.max_rounds = max_rounds
        self.intact: Dict[int, bytes] = dict(cache.load(document_id))
        self.engine: Optional[TransferEngine] = None
        self.manifest: Optional[_Manifest] = None
        self.frames = 0
        self._manifest_due = True
        self._delivered = 0  # frames read in the current round

    @property
    def started(self) -> bool:
        return self.engine is not None

    def connected(self) -> List[int]:
        self._manifest_due = True
        self._delivered = 0
        return sorted(self.intact)

    def on_message(self, msg_type: int, body: bytes) -> Step:
        if self._manifest_due:
            check_expected(msg_type, body, MSG_MANIFEST)
            self._manifest_due = False
            return self._on_manifest(decode_json(body)), None
        check_expected(msg_type, body, MSG_FRAME, MSG_ROUND_END)
        engine, manifest = self.engine, self.manifest
        n = manifest.n
        if msg_type == MSG_FRAME:
            self.frames += 1
            self._delivered += 1
            frame = decode_frame(body)
            if (
                frame.intact
                and 0 <= frame.sequence < n
                and len(frame.payload) == manifest.packet_size
            ):
                self.intact.setdefault(frame.sequence, frame.payload)
                return engine.on_frame_intact(frame.sequence), None
            return engine.on_frame_corrupt(frame.sequence), None
        sent = decode_json(body).get("sent", 0)
        if type(sent) is not int or not 0 <= sent <= n:
            raise WireError(f"ROUND_END sent {sent!r} outside 0..{n}")
        for _ in range(sent - self._delivered):
            verdict = engine.on_frame_lost()
            if verdict is not None:
                return verdict, None
        self._delivered = 0
        verdict = self._end_round()
        if verdict is not None:
            return verdict, None
        return None, encode_json(
            MSG_NEXT_ROUND, {"round": engine.round, "have": sorted(self.intact)}
        )

    def dropped(self) -> Optional[Effect]:
        """The interrupted round is a stall; the cache decides what survives."""
        return self._end_round()

    def abort(self) -> Effect:
        return self.engine.abort()

    def finish(self, verdict: Effect) -> Tuple[Optional[bytes], float]:
        if isinstance(verdict, Decoded):
            manifest = self.manifest
            payload = reconstruct_payload(
                manifest.m,
                manifest.n,
                manifest.original_size,
                self.intact,
                systematic=manifest.systematic,
            )
            self.cache.discard(self.document_id)
            return payload, self.engine.content_received
        self._remember()
        if isinstance(verdict, EarlyStop):
            return None, verdict.content
        return None, self.engine.content_received

    def _on_manifest(self, fields: Dict[str, object]) -> Optional[Effect]:
        if self.manifest is not None:
            if fields.get("m") != self.manifest.m or fields.get("n") != self.manifest.n:
                raise WireError("document geometry changed across reconnect")
            return None
        self.manifest = _parse_manifest(fields, self.relevance_threshold)
        self.engine = TransferEngine(
            self.manifest.m,
            self.manifest.n,
            content_profile=self.manifest.profile,
            caching=not isinstance(self.cache, NullCache),
            relevance_threshold=self.relevance_threshold,
            max_rounds=self.max_rounds,
            document_id=self.document_id,
            bridge=self.bridge,
            preloaded=self.intact,
        )
        return self.engine.start()

    def _end_round(self) -> Optional[Effect]:
        self._remember()
        carried = not isinstance(self.cache, NullCache) and bool(
            self.cache.load(self.document_id)
        )
        if not carried:
            self.intact.clear()
        if self.engine is None:
            return None
        return self.engine.on_round_ended(carried=carried)

    def _remember(self) -> None:
        for sequence, payload in self.intact.items():
            self.cache.store(self.document_id, sequence, payload)


class _Carousel:
    """Sans-IO carousel delivery: tune in, decode from any M.

    The ``HELLO`` ``prep`` field carries ``delivery=carousel``, so the
    server subscribes the connection to the shared stream.  The first
    air index (at most one carousel period away) supplies the
    geometry, then any M intact tagged frames — collected across cycle
    boundaries and redials, the Caching policy — decode
    byte-identically to a unicast fetch.
    """

    def __init__(self, receiver: CarouselReceiver) -> None:
        self.receiver = receiver
        self.frames = 0

    @property
    def started(self) -> bool:
        return self.receiver.synced

    def connected(self) -> List[int]:
        return []

    def on_message(self, msg_type: int, body: bytes) -> Step:
        check_expected(msg_type, body, MSG_AIR_INDEX, MSG_BCAST_FRAME)
        receiver = self.receiver
        if msg_type == MSG_BCAST_FRAME:
            if not body:
                raise WireError("empty broadcast frame")
            self.frames += 1
            return receiver.on_frame(body[0], bytes(body[1:])), None
        fields = decode_json(body)
        try:
            verdict = receiver.on_air_index(AirIndex.from_wire(fields))
        except (ValueError, OverflowError) as exc:
            raise WireError(f"malformed air index: {exc}") from None
        if receiver.absent:
            raise WireError(
                f"document {receiver.document_id!r} is not on the carousel"
            )
        return verdict, None

    def dropped(self) -> Optional[Effect]:
        return None

    def abort(self) -> Effect:
        return self.receiver.abort()

    def finish(self, verdict: Effect) -> Tuple[Optional[bytes], float]:
        if isinstance(verdict, Decoded):
            return self.receiver.payload(), self.receiver.content_received
        if isinstance(verdict, EarlyStop):
            return None, verdict.content
        return None, self.receiver.content_received


class NetClient:
    """Fetch documents from a :class:`~repro.net.server.NetServer`.

    Parameters
    ----------
    host, port:
        Server (or chaos-proxy) address.
    cache:
        ``None`` selects NoCaching — a dropped connection restarts the
        transfer — unless ``settings.use_cache`` asks for a private
        :class:`PacketCache`.  Pass a shared :class:`PacketCache` for
        the §4.2 Caching policy across fetches: intact packets survive
        drops and reconnects resume.
    settings:
        :class:`repro.prep.TransferSettings` carrying the protocol
        knobs (relevance threshold F, retransmission bound, round
        timeout, reconnect budget, delivery mode); defaults when
        ``None``.
    request:
        Default :class:`repro.prep.PrepRequest` sent to the server
        with every fetch (LOD, measure, query, packet size, γ,
        delivery); ``None`` lets the server cook with its own default.
        :meth:`fetch` can override per call.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        cache: Optional[PacketCache] = None,
        reconnect_delay: float = 0.05,
        settings: Optional[TransferSettings] = None,
        request: Optional[PrepRequest] = None,
    ) -> None:
        if settings is None:
            settings = TransferSettings()
        self.host = host
        self.port = port
        self.settings = settings
        self.request = request
        if cache is None:
            cache = PacketCache() if settings.use_cache else NullCache()
        self.cache: PacketCache = cache
        self.relevance_threshold = settings.relevance_threshold
        self.max_rounds = settings.max_rounds
        self.round_timeout = settings.round_timeout
        self.max_reconnects = settings.max_reconnects
        self.reconnect_delay = reconnect_delay

    async def fetch(
        self, document_id: str, request: Optional[PrepRequest] = None
    ) -> NetFetchResult:
        """Download *document_id*; reconnect-and-resume on drops.

        *request* carries the per-fetch preparation parameters (LOD,
        measure, query, packet size, γ, delivery) to
        the server in the ``HELLO`` ``prep`` field; ``None`` falls
        back to the client default, then to the server default.  Its
        ``delivery`` (or ``settings.delivery``) picks unicast rounds
        or the broadcast carousel.

        Raises :class:`ConnectionLost` when the server is unreachable
        before a manifest (or air index) was ever received, and
        :class:`WireError` on unrecoverable protocol violations before
        then; after that every failure mode lands in the result's
        ``status="failed"``.
        """
        if request is None:
            request = self.request
        if self.settings.delivery is DeliveryMode.CAROUSEL and (
            request is None or request.delivery is DeliveryMode.UNICAST
        ):
            request = (request or PrepRequest()).replace(
                delivery=DeliveryMode.CAROUSEL
            )
        ctx = TraceContext.mint()
        bridge = TelemetryBridge("transfer", transfer_id=ctx.transfer_id)
        mode: Union[_Unicast, _Carousel]
        if request is not None and request.delivery is DeliveryMode.CAROUSEL:
            mode = _Carousel(
                CarouselReceiver(
                    document_id,
                    relevance_threshold=self.relevance_threshold,
                    max_cycles=self.max_rounds,
                    bridge=bridge,
                )
            )
        else:
            mode = _Unicast(
                document_id,
                bridge,
                self.cache,
                relevance_threshold=self.relevance_threshold,
                max_rounds=self.max_rounds,
            )
        reconnects = 0
        verdict: Optional[Effect] = None
        started = time.monotonic()

        while verdict is None:
            writer: Optional[asyncio.StreamWriter] = None
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port),
                    self.round_timeout,
                )
                ctx.next_connection()
                hello = {
                    "doc": document_id,
                    "have": mode.connected(),
                    "max_rounds": self.max_rounds,
                    "trace": ctx.to_wire(),
                }
                if request is not None:
                    hello["prep"] = request.to_wire()
                writer.write(encode_json(MSG_HELLO, hello))
                await writer.drain()
                while verdict is None:
                    msg_type, body = await asyncio.wait_for(
                        read_message(reader), self.round_timeout
                    )
                    verdict, reply = mode.on_message(msg_type, body)
                    if reply is not None:
                        writer.write(reply)
                        await writer.drain()
                try:  # best-effort final status; the verdict already stands
                    writer.write(
                        encode_json(
                            MSG_DONE, {"status": _status(verdict), "round": verdict.round}
                        )
                    )
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass
            except (ConnectionLost, asyncio.TimeoutError, OSError) as exc:
                reconnects += 1
                if reconnects > self.max_reconnects:
                    if not mode.started:
                        raise ConnectionLost(
                            f"server unreachable: {exc}"
                        ) from None
                    verdict = mode.abort()
                    break
                verdict = mode.dropped()
                if OBS.enabled:
                    OBS.metrics.counter(
                        "net.reconnects", "connections redialed after a drop"
                    ).inc()
                if self.reconnect_delay > 0:
                    await asyncio.sleep(self.reconnect_delay)
            except WireError:
                # Unrecoverable protocol violation (a refused request
                # or round, a document off the carousel, a hostile
                # message): surface it while nothing was started, fail
                # the transfer afterwards.
                if not mode.started:
                    raise
                verdict = mode.abort()
            finally:
                if writer is not None:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass

        elapsed = time.monotonic() - started
        payload, content = mode.finish(verdict)
        status = _status(verdict)
        success, early = status != "failed", status == "early_stop"
        bridge.complete(
            success=success,
            terminated_early=early,
            rounds=verdict.round,
            frames=mode.frames,
            content=content,
            response_time=elapsed,
        )
        if OBS.enabled:
            OBS.metrics.counter("net.fetches", "networked fetches").labels(
                outcome=status
            ).inc()
            OBS.metrics.counter("net.frames_received", "frames read off sockets").inc(
                mode.frames
            )
            OBS.metrics.histogram(
                "net.fetch_seconds", "wall-clock fetch latency", buckets=FETCH_BUCKETS
            ).observe(elapsed)
        return NetFetchResult(
            document_id=document_id,
            status=status,
            success=success,
            terminated_early=early,
            rounds=verdict.round,
            frames_received=mode.frames,
            reconnects=reconnects,
            elapsed=elapsed,
            content_received=content,
            payload=payload,
        )


async def fetch_stats(
    host: str, port: int, *, timeout: float = DEFAULT_ROUND_TIMEOUT
) -> Dict[str, object]:
    """Ask a server for its operational snapshot via the ``STATS`` frame.

    Opens a connection, sends ``STATS {}`` as the first message, and
    returns the decoded snapshot (see
    :meth:`~repro.net.server.NetServer.stats_snapshot`).  Raises
    :class:`ConnectionLost` / :class:`WireError` like a fetch would.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        writer.write(encode_json(MSG_STATS, {}))
        await writer.drain()
        _, body = await asyncio.wait_for(
            read_expected(reader, MSG_STATS), timeout
        )
        return decode_json(body)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
