"""Chaos proxy: the paper's fault model applied to live byte streams.

:class:`ChaosProxy` sits between a :class:`~repro.net.client.NetClient`
and a :class:`~repro.net.server.NetServer` as an asyncio
man-in-the-middle and consumes a seeded
:class:`~repro.channel.ChannelModel` — the same unified decision core
the event-level :class:`~repro.protocol.FaultInjector` uses — against
the server→client message stream:

* ``drop`` — the frame envelope is swallowed whole; the client sees a
  sequence gap and the round-end ledger books a loss;
* ``corrupt`` — payload bytes inside the frame are garbled *without*
  touching the envelope, so the stream stays parseable and the frame
  CRC does the detecting (corruption probability α on a real socket);
* ``disconnect`` — both directions are severed mid-stream; the client
  reconnects through the proxy and resumes from its cache.

Any model works: an i.i.d. :class:`~repro.channel.IIDModel`, a bursty
:class:`~repro.channel.GilbertElliottModel`, or a replayed
:class:`~repro.channel.TraceModel` — pass ``model=`` (or a
``--chaos-model`` spec through :func:`repro.channel.parse_model_spec`).

Only :data:`~repro.net.wire.MSG_FRAME` messages are touched — control
messages model the paper's reliable signalling path.  The client→
server direction is forwarded verbatim.

For deterministic regression tests, ``cut_after_frames`` cuts the
first connection after exactly that many forwarded frames, independent
of the probabilistic model.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Dict, Optional, Set

from repro.channel import CORRUPT, DISCONNECT, DROP, PASS, ChannelModel, IIDModel
from repro.net.wire import (
    MSG_FRAME,
    ConnectionLost,
    WireError,
    encode_message,
    read_message,
)
from repro.obs.runtime import OBS


class _Severed(Exception):
    """Internal: the model ordered this connection cut."""


class ChaosProxy:
    """Fault-injecting TCP relay in front of a :class:`NetServer`.

    Parameters
    ----------
    upstream_host, upstream_port:
        The real server to relay to.
    host, port:
        Listen address; port 0 picks a free port.
    model:
        The seeded :class:`~repro.channel.ChannelModel` to consume,
        one decision per relayed frame; ``None`` is a clean i.i.d.
        channel (for proxies that only cut via *cut_after_frames*).
    cut_after_frames:
        Deterministic override: sever the **first** connection after
        forwarding exactly this many frames (later connections run on
        the model alone).
    max_disconnects:
        Cap on model-ordered disconnects; once reached, further
        ``disconnect`` verdicts forward the frame instead, so tests
        always terminate.

    Counters: ``stats`` carries the unified vocabulary of
    :meth:`repro.channel.ChannelModel.counters` — ``dropped`` /
    ``corrupted`` / ``disconnects`` are distinct (a severed link is
    not a dropped frame) — plus ``connections`` and
    ``frames_forwarded``; ``link_stats`` holds the same fields per
    connection.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        model: Optional[ChannelModel] = None,
        cut_after_frames: Optional[int] = None,
        max_disconnects: Optional[int] = None,
    ) -> None:
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.host = host
        self.port = port
        self.model = model if model is not None else IIDModel()
        self.cut_after_frames = cut_after_frames
        self.max_disconnects = max_disconnects
        self._server: Optional[asyncio.AbstractServer] = None
        self._links: Set[asyncio.Task] = set()
        self._first_connection_seen = False
        self.stats: Dict[str, int] = {
            "connections": 0,
            "frames_forwarded": 0,
            "dropped": 0,
            "corrupted": 0,
            "disconnects": 0,
        }
        #: Per-connection chaos hits, newest last (bounded), so a test
        #: or snapshot can see *which* link a fault landed on.  Fields
        #: mirror ``stats`` (``forwarded`` / ``dropped`` /
        #: ``corrupted`` / ``disconnects``).
        self.link_stats: Deque[Dict[str, int]] = deque(maxlen=64)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("ChaosProxy.start() called twice")
        self._server = await asyncio.start_server(self._accept, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in self._links:
            task.cancel()
        if self._links:
            await asyncio.gather(*self._links, return_exceptions=True)
        self._links.clear()

    async def __aenter__(self) -> "ChaosProxy":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- relaying ----------------------------------------------------------

    def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._link(reader, writer))
        self._links.add(task)
        task.add_done_callback(self._links.discard)

    async def _link(
        self, client_reader: asyncio.StreamReader, client_writer: asyncio.StreamWriter
    ) -> None:
        self.stats["connections"] += 1
        link: Dict[str, int] = {
            "connection": self.stats["connections"],
            "forwarded": 0,
            "dropped": 0,
            "corrupted": 0,
            "disconnects": 0,
        }
        self.link_stats.append(link)
        first = not self._first_connection_seen
        self._first_connection_seen = True
        try:
            upstream_reader, upstream_writer = await asyncio.open_connection(
                self.upstream_host, self.upstream_port
            )
        except OSError:
            client_writer.close()
            return
        cut_at = self.cut_after_frames if first else None
        up = asyncio.ensure_future(self._pump_up(client_reader, upstream_writer))
        down = asyncio.ensure_future(
            self._pump_down(upstream_reader, client_writer, cut_at, link)
        )
        try:
            # Either direction ending (EOF, fault-ordered cut, error)
            # severs the whole link, like a dropped carrier.
            await asyncio.wait({up, down}, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for task in (up, down):
                task.cancel()
            await asyncio.gather(up, down, return_exceptions=True)
            for writer in (client_writer, upstream_writer):
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    async def _pump_up(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """client → server: forwarded verbatim."""
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    return
                writer.write(chunk)
                await writer.drain()
        except (ConnectionError, OSError):
            return

    async def _pump_down(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        cut_after_frames: Optional[int],
        link: Dict[str, int],
    ) -> None:
        """server → client: per-frame fault decisions."""
        frames_seen = 0
        try:
            while True:
                try:
                    msg_type, body = await read_message(reader)
                except (ConnectionLost, WireError):
                    return
                if msg_type != MSG_FRAME:
                    writer.write(encode_message(msg_type, body))
                    await writer.drain()
                    continue
                frames_seen += 1
                if cut_after_frames is not None and frames_seen > cut_after_frames:
                    self._record_disconnect(link)
                    raise _Severed
                verdict = self.model.decide()
                if verdict == DISCONNECT and not self._may_disconnect():
                    verdict = PASS  # disconnect budget spent: forward
                if verdict == DROP:
                    self.stats["dropped"] += 1
                    link["dropped"] += 1
                    if OBS.enabled:
                        OBS.metrics.counter(
                            "net.chaos_drops", "frames swallowed by the proxy"
                        ).inc()
                    continue
                if verdict == CORRUPT:
                    body = self._garble(body)
                    self.stats["corrupted"] += 1
                    link["corrupted"] += 1
                    if OBS.enabled:
                        OBS.metrics.counter(
                            "net.chaos_corruptions", "frames garbled by the proxy"
                        ).inc()
                elif verdict == DISCONNECT:
                    self._record_disconnect(link)
                    raise _Severed
                writer.write(encode_message(msg_type, body))
                await writer.drain()
                self.stats["frames_forwarded"] += 1
                link["forwarded"] += 1
        except _Severed:
            return
        except (ConnectionError, OSError):
            return

    def _may_disconnect(self) -> bool:
        return (
            self.max_disconnects is None
            or self.stats["disconnects"] < self.max_disconnects
        )

    def _record_disconnect(self, link: Optional[Dict[str, int]] = None) -> None:
        self.stats["disconnects"] += 1
        if link is not None:
            link["disconnects"] += 1
        if OBS.enabled:
            OBS.metrics.counter(
                "net.chaos_disconnects", "connections severed by the proxy"
            ).inc()

    @staticmethod
    def _garble(body: bytes) -> bytes:
        """Flip payload bytes; the frame CRC turns this into corrupt.

        Deterministic (no RNG draws) so a model consumed by the proxy
        stays draw-for-draw aligned with the same model consumed by
        the event-level injector.
        """
        if not body:
            return body
        damaged = bytearray(body)
        damaged[len(damaged) // 2] ^= 0xA5
        damaged[-1] ^= 0x5A
        return bytes(damaged)
