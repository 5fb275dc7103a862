"""Layering lint: enforce the sans-IO import DAG (run in CI).

The refactor that introduced :mod:`repro.protocol` only stays honest
if the dependency directions hold.  This script AST-parses every
module under ``src/repro`` and fails the build when:

1. ``repro.protocol`` imports any I/O layer — it may only use the
   standard library, :mod:`repro.obs` (telemetry bridge),
   :mod:`repro.util`, and itself;
2. ``repro.simulation`` or ``repro.prototype`` imports
   ``repro.transport.session`` — the byte driver's internals are not a
   library for other layers; shared decision logic lives in
   ``repro.protocol`` (the prototype drives the engine itself, and the
   oracle runner must not silently fall back to the byte path);
3. ``repro.obs`` imports any protocol or I/O layer (telemetry is a
   leaf: everything may report to it, it depends on nothing);
4. ``repro.net`` or ``repro.prep`` imports ``repro.prototype`` or
   ``repro.cli`` — the store direction: a store adapter such as the
   prototype's broker store depends on the serving layer and plugs
   into it, never the reverse;
5. the client side of ``repro.net`` (``client``, ``loadgen``,
   ``chaos``) and the server side (``server``, ``workers``) never
   import each other — the two peers share only ``repro.net.wire``;
6. ``repro.core.compact`` (the cached SC form and the measure
   arithmetic) imports only :mod:`repro.util`, :mod:`repro.text` and
   :mod:`repro.obs`, so the SC tier never needs the unit tree.

Usage::

    python tools/check_layering.py [--root src/repro]

Exit status 0 when clean, 1 with one ``file:line: message`` per
violation otherwise.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

STORE_DIRECTION = (
    "store direction: store adapters (the prototype's broker store) and "
    "the CLI build on the serving layer, never the reverse"
)

PEERS = (
    "peer split: the client side (client, loadgen, chaos) and the "
    "server side (server, workers) share only repro.net.wire"
)
CLIENT_SIDE = ("repro.net.client", "repro.net.loadgen", "repro.net.chaos")
SERVER_SIDE = ("repro.net.server", "repro.net.workers")

#: package prefix → module prefixes it must never import.
#: Checked against absolute imports of ``repro.*`` (the codebase uses
#: no relative imports across packages).
FORBIDDEN: List[Tuple[str, Tuple[str, ...], str]] = [
    (
        "repro.channel",
        (
            "repro.protocol",
            "repro.broadcast",
            "repro.net",
            "repro.transport",
            "repro.simulation",
            "repro.prototype",
            "repro.coding",
            "repro.cli",
            "repro.figures",
            "repro.xmlkit",
            "repro.htmlkit",
            "repro.search",
            "repro.core",
            "repro.text",
            "repro.analysis",
            "repro.data",
            "repro.prep",
        ),
        "repro.channel is the shared decision core below every consumer: "
        "only stdlib, repro.obs, and repro.util",
    ),
    (
        "repro.protocol",
        (
            "repro.broadcast",
            "repro.net",
            "repro.transport",
            "repro.simulation",
            "repro.prototype",
            "repro.coding",
            "repro.cli",
            "repro.figures",
            "repro.xmlkit",
            "repro.htmlkit",
            "repro.search",
            "repro.core",
            "repro.text",
            "repro.analysis",
            "repro.data",
        ),
        "repro.protocol is sans-IO: only stdlib, repro.channel, "
        "repro.obs, and repro.util",
    ),
    (
        "repro.simulation",
        ("repro.transport.session",),
        "the oracle runner drives repro.protocol, not the byte driver",
    ),
    (
        "repro.prototype",
        ("repro.transport.session",),
        "the prototype drives repro.protocol, not the byte driver",
    ),
    (
        "repro.obs",
        (
            "repro.channel",
            "repro.protocol",
            "repro.broadcast",
            "repro.net",
            "repro.transport",
            "repro.simulation",
            "repro.prototype",
            "repro.coding",
        ),
        "repro.obs is a leaf: layers report to it, never the reverse",
    ),
    (
        "repro.net",
        (
            "repro.simulation",
            "repro.figures",
            "repro.xmlkit",
            "repro.htmlkit",
            "repro.search",
            "repro.core",
            "repro.text",
            "repro.analysis.planner",
            "repro.analysis.negbinom",
            "repro.analysis.response",
            "repro.analysis.sequential",
            "repro.data",
        ),
        "repro.net sits beside repro.transport: it drives repro.protocol "
        "over sockets and may reuse coding/transport state plus the "
        "EWMA estimators, nothing above",
    ),
    (
        "repro.broadcast",
        (
            "repro.net",
            "repro.transport",
            "repro.simulation",
            "repro.prototype",
            "repro.coding",
            "repro.cli",
            "repro.figures",
            "repro.xmlkit",
            "repro.htmlkit",
            "repro.search",
            "repro.core",
            "repro.text",
            "repro.analysis",
            "repro.data",
        ),
        "repro.broadcast is sans-IO like repro.protocol: it schedules "
        "and receives over prep's cooked artifacts using only "
        "repro.protocol, repro.prep, repro.channel, repro.obs, and "
        "repro.util — the socket layer subscribes to it, never the "
        "reverse",
    ),
    (
        "repro.transport",
        ("repro.net", "repro.broadcast"),
        "the simulated byte driver must not depend on the socket layer",
    ),
    (
        "repro.prep",
        (
            "repro.net",
            "repro.broadcast",
            "repro.transport",
            "repro.simulation",
            "repro.figures",
        ),
        "repro.prep cooks documents for every driver: it may use the "
        "core/coding/text substrate, never the layers that call it",
    ),
    ("repro.net", ("repro.prototype", "repro.cli"), STORE_DIRECTION),
    ("repro.prep", ("repro.prototype", "repro.cli"), STORE_DIRECTION),
    *((module, SERVER_SIDE, PEERS) for module in CLIENT_SIDE),
    *((module, CLIENT_SIDE, PEERS) for module in SERVER_SIDE),
    (
        "repro.core.compact",
        (
            "repro.core",
            "repro.channel",
            "repro.protocol",
            "repro.broadcast",
            "repro.net",
            "repro.transport",
            "repro.simulation",
            "repro.prototype",
            "repro.coding",
            "repro.cli",
            "repro.figures",
            "repro.xmlkit",
            "repro.htmlkit",
            "repro.search",
            "repro.analysis",
            "repro.data",
            "repro.prep",
        ),
        "the compact SC is the bottom of repro.core: stdlib, repro.util, "
        "repro.text and repro.obs only",
    ),
    (
        "repro.prep.diskstore",
        (
            "repro.core",
            "repro.text",
            "repro.xmlkit",
            "repro.htmlkit",
            "repro.search",
            "repro.analysis",
            "repro.channel",
            "repro.protocol",
        ),
        "the bundle store persists finished wire frames: stdlib + "
        "repro.coding + repro.obs + repro.prep.prepare only — loading "
        "a bundle must never need the pipeline substrate",
    ),
]


def module_name(root: Path, path: Path) -> str:
    """``src/repro/a/b.py`` → ``repro.a.b`` (packages keep their name)."""
    relative = path.relative_to(root.parent)
    parts = list(relative.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imported_modules(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, module)`` for every import in *tree*."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module is not None and node.level == 0:
                yield node.lineno, node.module


def _violates(imported: str, banned: str) -> bool:
    return imported == banned or imported.startswith(banned + ".")


def check_tree(root: Path) -> List[str]:
    violations: List[str] = []
    for path in sorted(root.rglob("*.py")):
        module = module_name(root, path)
        rules = [
            (banned_prefixes, why)
            for package, banned_prefixes, why in FORBIDDEN
            if module == package or module.startswith(package + ".")
        ]
        if not rules:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for lineno, imported in imported_modules(tree):
            for banned_prefixes, why in rules:
                for banned in banned_prefixes:
                    if _violates(imported, banned):
                        violations.append(
                            f"{path}:{lineno}: {module} imports {imported} ({why})"
                        )
    return violations


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=str(Path(__file__).resolve().parent.parent / "src" / "repro"),
        help="package root to lint (default: src/repro)",
    )
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2
    violations = check_tree(root)
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} layering violation(s)", file=sys.stderr)
        return 1
    print("layering OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
