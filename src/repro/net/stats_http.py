"""Minimal HTTP exposition for the server's operational snapshot.

:class:`StatsHTTP` is the ``--metrics-port`` listener: a tiny asyncio
HTTP/1.0 responder with three routes —

* ``/metrics`` — Prometheus text exposition: the snapshot's numeric
  fields flattened into sample lines under the names ``/stats.json``
  uses, each serving fact once, so a scrape works with telemetry off.
  When telemetry is enabled the OBS registry (client-side families and
  stage timers, rendered by
  :meth:`~repro.obs.metrics.MetricsRegistry.render_prometheus` with a
  ``repro_`` prefix) comes first;
* ``/stats.json`` — the full snapshot as JSON (same payload as the
  in-band ``STATS`` wire frame);
* ``/healthz`` — liveness probe, ``ok``.

Deliberately *not* a web framework: it reads one request line plus
headers, answers, and closes (``Connection: close``).  It exists so an
operator can ``curl`` a running ``repro net serve`` — or point a real
Prometheus at it — without adding any dependency.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import prometheus_name, prometheus_value
from repro.obs.runtime import OBS

#: Bound on the request head (request line + headers) we will read.
MAX_REQUEST_BYTES = 8192


def _flatten_numeric(
    prefix: str, value: Any, out: Dict[str, List[str]], suffix: str = ""
) -> None:
    """Flatten nested dicts of numbers into sample lines grouped by name.

    *suffix* is a rendered label set (e.g. ``{worker="w2"}``) put on
    every sample, so per-worker series join the group of the merged
    one.  Lists and strings (connection tables, IDs) have no scalar
    form and are skipped.
    """
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, (int, float)):
        name = prometheus_name(prefix)
        out.setdefault(name, []).append(f"{name}{suffix} {prometheus_value(value)}")
    elif isinstance(value, dict):
        for key, nested in value.items():
            _flatten_numeric(f"{prefix}_{key}", nested, out, suffix)


#: Snapshot sections flattened into ``/metrics``, each with the keys
#: it repeats from ``server`` for ``/stats.json`` readers: /metrics
#: shows those once, as ``repro_server_*``.
_SECTIONS: Dict[str, Tuple[str, ...]] = {
    "server": (),
    "outcomes": (),
    "slo": (),
    "prep": (),
    "prep_cache": (),
    "adaptive": ("rounds", "frames_saved"),
    "broadcast": ("subscriptions", "slots_dropped"),
}


def _flatten_snapshot(
    snapshot: Dict[str, Any], out: Dict[str, List[str]], suffix: str = ""
) -> None:
    for section, copies in _SECTIONS.items():
        value = snapshot.get(section)
        if isinstance(value, dict):
            value = {k: v for k, v in value.items() if k not in copies}
            _flatten_numeric(f"repro_{section}", value, out, suffix)
    _flatten_numeric(
        "repro_active_connections", snapshot.get("active_connections", 0), out, suffix
    )


def render_exposition(snapshot: Dict[str, Any]) -> str:
    """The ``/metrics`` body for one snapshot.

    OBS registry first (when enabled: client-side families, stage
    timers), then the snapshot's numeric fields under the names
    ``/stats.json`` uses — ``repro_server_*``, ``repro_outcomes_*``,
    ``repro_slo_*``, ``repro_prep_*``, ``repro_prep_cache_*`` and so
    on.  A merged multi-worker snapshot (one carrying a ``workers``
    list) adds each worker's samples with a ``worker="wN"`` label in
    the same group as the fleet total.
    """
    parts: List[str] = []
    if OBS.enabled:
        rendered = OBS.metrics.render_prometheus(prefix="repro.")
        if rendered:
            parts.append(rendered.rstrip("\n"))
    samples: Dict[str, List[str]] = {}
    _flatten_snapshot(snapshot, samples)
    workers = snapshot.get("workers")
    if isinstance(workers, list):
        for index, worker in enumerate(workers):
            if isinstance(worker, dict):
                label = str(worker.get("worker", f"w{index}"))
                _flatten_snapshot(worker, samples, f'{{worker="{label}"}}')
    parts.extend("\n".join(lines) for lines in samples.values())
    return "\n".join(parts) + "\n"


class StatsHTTP:
    """Serve a snapshot callable over HTTP; see the module docstring.

    Parameters
    ----------
    snapshot:
        Zero-argument callable returning a JSON-safe dict — normally
        :meth:`~repro.net.server.NetServer.stats_snapshot`.
    host, port:
        Bind address; port 0 picks a free port (read :attr:`port`
        after :meth:`start`).
    """

    def __init__(
        self,
        snapshot: Callable[[], Dict[str, Any]],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.snapshot = snapshot
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("StatsHTTP.start() called twice")
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "StatsHTTP":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- one request -------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n"), timeout=5.0
            )
        except (
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionError,
            OSError,
        ):
            writer.close()
            return
        try:
            parts = head[:MAX_REQUEST_BYTES].decode("latin-1").split()
            method, path = parts[0], parts[1]
        except (IndexError, UnicodeDecodeError):
            method, path = "", ""
        path = path.split("?", 1)[0]
        if method != "GET":
            status, ctype, body = "405 Method Not Allowed", "text/plain", "method not allowed\n"
        elif path == "/healthz":
            status, ctype, body = "200 OK", "text/plain", "ok\n"
        elif path == "/metrics":
            status = "200 OK"
            ctype = "text/plain; version=0.0.4"
            body = render_exposition(self.snapshot())
        elif path == "/stats.json":
            status = "200 OK"
            ctype = "application/json"
            body = json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n"
        else:
            status, ctype, body = "404 Not Found", "text/plain", f"no route {path}\n"
        payload = body.encode("utf-8")
        writer.write(
            (
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("latin-1")
            + payload
        )
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
