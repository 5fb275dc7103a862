"""The serving path imports only what serving runs.

No coding backend imports numpy: a warmed ``net serve`` stack on a
host with a C compiler cooks through the ``native`` backend and leaves
numpy out of ``sys.modules`` (about 12 MB of resident memory per
serving process).  Nor does the stack load the simulators, the
transport session, HTML extraction, the carousel or multiprocessing,
unless a carousel is configured: the package facades are lazy and
``repro.cli`` imports per command.

Nor does a ``python -m repro`` process map OpenSSL (about 5 MB per
process): the entry point and each spawned pool worker refuse ``ssl``
before asyncio is imported, and every digest is the builtin SHA-256 of
:mod:`repro.util.nossl`, so ``ssl``, ``_ssl``, ``hashlib`` and
``_hashlib`` stay unloaded up to "listening" and no worker maps
``libssl`` or ``libcrypto``.  Library code leaves ``ssl`` importable:
only the process entry points refuse it.

Each check runs in a fresh interpreter, because the test process itself
has already imported most of the tree.
"""

import importlib.util
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.coding import _native
from repro.coding.backend import BACKEND_ENV
from repro.data import draft_paper_path

REPO = Path(__file__).resolve().parent.parent
DRAFT = draft_paper_path()


def run_fresh(script, *args, **env):
    """Run *script* with *args* in a new interpreter; return its last
    stdout line as JSON."""
    environ = {key: value for key, value in os.environ.items() if key != BACKEND_ENV}
    environ["PYTHONPATH"] = str(REPO / "src")
    environ.update(env)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=environ,
        cwd=REPO,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_SERVE = """
import json, sys
import repro.cli
from repro.coding.backend import get_backend
from repro.data import draft_paper_path
from repro.net.workers import WorkerConfig, build_server, build_worker_service

config = WorkerConfig(paths=(str(draft_paper_path()),), warmup=True)
service = build_worker_service(config)
build_server(config, service)
print(json.dumps({
    "backend": get_backend().name,
    "cooked": service.stats["cooked_misses"],
    "numpy_imported": "numpy" in sys.modules,
}))
"""

#: A warmed server answers one HELLO whose prep names a kernel.
_HOSTILE_HELLO = """
import asyncio, json, sys
from repro.data import draft_paper_path
from repro.net.wire import MSG_HELLO, MESSAGE_NAMES, encode_json, read_message
from repro.net.workers import WorkerConfig, build_server, build_worker_service

config = WorkerConfig(paths=(str(draft_paper_path()),), warmup=True)
service = build_worker_service(config)

async def go():
    async with build_server(config, service) as server:
        reader, writer = await asyncio.open_connection(server.host, server.port)
        prep = {"backend": "numpy"}
        writer.write(encode_json(MSG_HELLO, {"doc": "draft_paper", "have": [], "prep": prep}))
        await writer.drain()
        msg_type, _ = await read_message(reader)
        writer.close()
        return MESSAGE_NAMES[msg_type], server.stats["errors"]

reply, errors = asyncio.run(go())
print(json.dumps({
    "reply": reply,
    "errors": errors,
    "numpy_imported": "numpy" in sys.modules,
}))
"""

_NATIVE_OFF = """
import json
from repro.coding.backend import default_backend_name, get_backend
try:
    get_backend("native")
except Exception as exc:
    error = type(exc).__name__
else:
    error = None
print(json.dumps({"default": default_backend_name(), "error": error}))
"""


#: What ``python -m repro net serve DOC --port 0 --warmup`` runs before
#: "listening": the CLI's parser and config, a warmed service, a server.
_SERVE_CLI = """
import json, sys
import repro.cli as cli
from repro.data import draft_paper_path
from repro.net.workers import build_server, build_worker_service

args = cli.build_parser().parse_args(
    ["net", "serve", str(draft_paper_path()), "--port", "0", "--warmup"]
)
config = cli._serve_config(args)
service = build_worker_service(config)
build_server(config, service)
print(json.dumps({"cooked": service.stats["cooked_misses"], "modules": sorted(sys.modules)}))
"""

#: Modules that load OpenSSL into a process.
OPENSSL_MODULES = ["ssl", "_ssl", "hashlib", "_hashlib"]

#: ``python -m repro net serve DOC --port 0 --warmup --disk-cache DIR``
#: up to "listening", through the entry point's module body.
_SERVE_ENTRY = """
import repro.__main__
import asyncio, json, sys
import repro.cli as cli
from repro.data import draft_paper_path
from repro.net.workers import build_server, build_worker_service

args = cli.build_parser().parse_args(
    ["net", "serve", str(draft_paper_path()), "--port", "0", "--warmup",
     "--disk-cache", sys.argv[1]]
)
config = cli._serve_config(args)
service = build_worker_service(config)

async def listen():
    async with build_server(config, service) as server:
        return server.port

print(json.dumps({
    "port": asyncio.run(listen()),
    "disk_writes": service.stats["disk_writes"],
    "loaded": [name for name in sys.argv[2:] if sys.modules.get(name) is not None],
}))
"""

#: The same stack driven from library code, as a test or an embedding
#: program does: ``ssl`` stays importable.
_SERVE_LIBRARY = """
import asyncio, json, sys
import repro.cli as cli
from repro.data import draft_paper_path
from repro.net.workers import build_server, build_worker_service

# A refused flag combination returns from cli.main before serving.
refused = cli.main(
    ["net", "serve", str(draft_paper_path()), "--port", "0", "--carousel", "--workers", "2"]
)
args = cli.build_parser().parse_args(["net", "serve", str(draft_paper_path()), "--port", "0"])
config = cli._serve_config(args)
service = build_worker_service(config)

async def listen():
    async with build_server(config, service) as server:
        return server.port

asyncio.run(listen())
import ssl
print(json.dumps({"refused": refused, "ssl": ssl.__name__}))
"""

#: Modules the single-process server never runs.
NOT_SERVED = [
    "repro.simulation",
    "repro.transport",
    "repro.htmlkit",
    "repro.search",
    "repro.prototype",
    "repro.broadcast",
    "repro.channel",
    "repro.figures",
    "repro.browse",
    "repro.net.client",
    "repro.net.loadgen",
    "repro.net.chaos",
    "multiprocessing",
    "concurrent.futures.process",
]

#: A server with a carousel imports the broadcast package, and airs.
_CAROUSEL = """
import asyncio, json, sys
import repro.cli
from repro.data import draft_paper_path
from repro.net.workers import WorkerConfig, build_server, build_worker_service

config = WorkerConfig(paths=(str(draft_paper_path()),), warmup=True)
service = build_worker_service(config)
from repro.broadcast import CarouselScheduler

carousel = CarouselScheduler.from_service(service)

async def go():
    async with build_server(config, service, carousel=carousel) as server:
        from repro.net import NetClient
        from repro.prep.request import DeliveryMode, PrepRequest

        client = NetClient(server.host, server.port)
        unicast = await client.fetch("draft_paper")
        aired = await client.fetch(
            "draft_paper", request=PrepRequest(delivery=DeliveryMode.CAROUSEL)
        )
        return unicast, aired, server.stats_snapshot()

unicast, aired, snapshot = asyncio.run(go())
print(json.dumps({
    "broadcast_imported": "repro.broadcast" in sys.modules,
    "status": aired.status,
    "same_payload": aired.payload == unicast.payload,
    "on_air": snapshot["broadcast"]["documents"],
}))
"""

#: The top-level facade resolves every public name, lazily.
_FACADE = """
import json, sys
import repro

loaded_by_import = sorted(name for name in sys.modules if name.startswith("repro."))
missing = [name for name in repro.__all__ if getattr(repro, name, None) is None]
print(json.dumps({
    "loaded_by_import": loaded_by_import,
    "missing": missing,
    "not_in_dir": sorted(set(repro.__all__) - set(dir(repro))),
}))
"""


def test_serve_path_imports_only_the_serving_stack():
    report = run_fresh(_SERVE_CLI)
    assert report["cooked"] >= 1  # warm-up really encoded
    loaded = set(report["modules"])
    assert sorted(loaded.intersection(NOT_SERVED)) == []
    # Nor any submodule of a package that is not served.
    assert [
        name for name in loaded
        if any(name.startswith(prefix + ".") for prefix in NOT_SERVED)
    ] == []


@pytest.mark.net
def test_a_carousel_server_imports_broadcast_and_airs():
    report = run_fresh(_CAROUSEL)
    assert report["broadcast_imported"]
    assert report["status"] == "decoded"
    assert report["same_payload"]
    assert report["on_air"] == 1


def test_every_public_name_resolves_through_the_lazy_facade():
    report = run_fresh(_FACADE)
    assert report["loaded_by_import"] == ["repro.util", "repro.util.lazy"]
    assert report["missing"] == []
    assert report["not_in_dir"] == []


def test_warmed_serve_stack_never_imports_numpy():
    if _native.load() is None:
        pytest.skip("the native GF(2^8) kernel is unavailable on this host")
    report = run_fresh(_SERVE)
    assert report["backend"] == "native"
    assert report["cooked"] >= 1  # warm-up really encoded
    assert not report["numpy_imported"]


@pytest.mark.net
def test_hello_naming_numpy_does_not_import_it():
    """A HELLO whose prep asks for the numpy kernel is refused, and the
    refusal leaves the serving process as numpy-free as it was."""
    if _native.load() is None:
        pytest.skip("the native GF(2^8) kernel is unavailable on this host")
    if importlib.util.find_spec("numpy") is None:
        pytest.skip("numpy is not installed, so nothing could import it")
    report = run_fresh(_HOSTILE_HELLO)
    assert report["reply"] == "error"
    assert report["errors"] == 1
    assert not report["numpy_imported"]


def test_native_disabled_falls_back_in_order():
    report = run_fresh(_NATIVE_OFF, REPRO_CODING_NATIVE="0")
    assert report["default"] == "fused"
    assert report["error"] == "CodingBackendError"


def test_entry_point_serves_without_openssl(tmp_path):
    report = run_fresh(_SERVE_ENTRY, str(tmp_path), *OPENSSL_MODULES)
    assert report["port"] > 0
    assert report["disk_writes"] == 1  # a bundle name and trailer were hashed
    assert report["loaded"] == []


def test_library_callers_keep_ssl_importable():
    report = run_fresh(_SERVE_LIBRARY)
    assert report["refused"] == 2
    assert report["ssl"] == "ssl"


def _openssl_maps(pid):
    """The OpenSSL libraries mapped into process *pid*."""
    maps = Path(f"/proc/{pid}/maps").read_text()
    return sorted({
        line.rsplit("/", 1)[-1]
        for line in maps.splitlines()
        if "libssl" in line or "libcrypto" in line
    })


def _pool_workers(pid):
    """Pids of the spawned pool workers whose parent is *pid*."""
    workers = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            ppid = int((entry / "stat").read_text().rsplit(")", 1)[1].split()[1])
            cmdline = (entry / "cmdline").read_bytes()
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid and b"--multiprocessing-fork" in cmdline:
            workers.append(int(entry.name))
    return workers


@pytest.mark.net
@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/<pid>/maps")
def test_no_pool_worker_maps_openssl(tmp_path):
    """``net serve --workers 2``: neither the parent nor a worker maps
    ``libssl`` or ``libcrypto`` once the pool is listening."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "net", "serve", str(DRAFT), "--port", "0",
         "--warmup", "--workers", "2", "--disk-cache", str(tmp_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        cwd=REPO,
    )
    try:
        output = []
        for line in proc.stdout:
            output.append(line)
            if line.startswith("listening on"):
                break
        assert proc.poll() is None, "".join(output)
        workers = _pool_workers(proc.pid)
        assert len(workers) == 2, workers
        assert {pid: _openssl_maps(pid) for pid in [proc.pid, *workers]} == {
            pid: [] for pid in [proc.pid, *workers]
        }
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
