"""The serving path never imports numpy when the native kernel loads.

numpy is the no-compiler fallback only: a warmed ``net serve`` stack on
a host with a C compiler cooks through the ``native`` backend and
leaves numpy out of ``sys.modules`` (about 12 MB of resident memory per
serving process).  Each check runs in a fresh interpreter, because the
test process itself may already have imported numpy.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.coding import _native
from repro.coding.backend import BACKEND_ENV

REPO = Path(__file__).resolve().parent.parent


def run_fresh(script, **env):
    """Run *script* in a new interpreter; return its last stdout line as JSON."""
    environ = {key: value for key, value in os.environ.items() if key != BACKEND_ENV}
    environ["PYTHONPATH"] = str(REPO / "src")
    environ.update(env)
    proc = subprocess.run(
        [sys.executable, "-c", script],
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
    expected = "numpy" if importlib.util.find_spec("numpy") else "fused"
    assert report["default"] == expected
    assert report["error"] == "CodingBackendError"
