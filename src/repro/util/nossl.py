"""Keep OpenSSL out of a ``repro`` process.

Nothing in :mod:`repro` speaks TLS, and the only digest it takes is
SHA-256.  Yet ``hashlib`` loads ``_hashlib`` (libcrypto) and asyncio
tries ``import ssl`` (libssl and libcrypto), which together cost a
serving process about 5 MB of resident memory.  This module is the
one place that takes a digest, and the one place that keeps ``ssl``
out:

* :data:`sha256` is the interpreter's builtin SHA-256 (``_sha2`` on
  CPython 3.12+, ``_sha256`` on 3.10–3.11), falling back to
  ``hashlib.sha256`` on a build without builtin hashes.  Its digests
  are SHA-256's, whichever implementation answers.
* :func:`refuse_ssl` makes ``import ssl`` fail for the rest of the
  process; asyncio, ``http.client`` and ``urllib`` run without it.
"""

from __future__ import annotations

import sys

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10–3.11
    except ImportError:  # pragma: no cover - a build without builtin hashes
        from hashlib import sha256

__all__ = ["refuse_ssl", "sha256"]


def refuse_ssl() -> None:
    """Make every later ``import ssl`` in this process raise ``ImportError``.

    A ``None`` entry in :data:`sys.modules` is the documented way to
    make an import fail.  Call it only where a process starts (the
    ``python -m repro`` entry point, a spawned pool worker), before
    asyncio is imported: library code that a test imports in process
    must leave ``ssl`` importable.  An ``ssl`` already imported stays.
    """
    sys.modules.setdefault("ssl", None)
