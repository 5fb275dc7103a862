"""Run ``repro net serve`` with spans recorded on the server's layers.

Usage::

    PYTHONPATH=src python benchmarks/perf/serve_traced.py SPANS.json net serve DOC... [FLAGS]

The wrapper patches the public functions listed in
:func:`layers.install_server`, hands the remaining arguments to
``repro.cli.main`` unchanged, and writes the spans to ``SPANS.json``
when the server exits (SIGINT drains it as usual).
"""

from __future__ import annotations

import sys

import layers
from spans import Tracer


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    from repro import cli

    tracer = Tracer()
    layers.install_server(tracer)
    try:
        return cli.main(argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
