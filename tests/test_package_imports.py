"""Every package imports on its own, and its lazy facade holds.

Each check runs in a fresh interpreter: an import cycle shows only in
the order that starts it, and the test process has already imported
most of the tree.  The script imports one package first, resolves every
name in its ``__all__``, then imports every submodule and checks that
no public name was rebound to a module of the same name (the trap a
lazy facade sets for a name such as ``repro.prep.prepare``).
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parent.parent

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
)

_CHECK = """
import importlib, json, pkgutil, sys, types
name = sys.argv[1]
package = importlib.import_module(name)
public = list(getattr(package, "__all__", ()))
unresolved = [n for n in public if not hasattr(package, n)]
undirred = sorted(set(public) - set(dir(package)))
submodules = []
if hasattr(package, "__path__"):
    for info in pkgutil.iter_modules(package.__path__):
        if info.name.startswith("_"):
            continue
        submodules.append(info.name)
        importlib.import_module(f"{name}.{info.name}")
rebound = [n for n in public if isinstance(getattr(package, n), types.ModuleType)]
print(json.dumps({
    "unresolved": unresolved,
    "undirred": undirred,
    "rebound": rebound,
    "submodules": len(submodules),
}))
"""


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports_alone(name):
    environ = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _CHECK, name],
        capture_output=True,
        text=True,
        env=environ,
        cwd=REPO,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["unresolved"] == []
    assert report["undirred"] == []
    assert report["rebound"] == []
