"""``python -m repro`` entry point.

``ssl`` is refused before anything imports asyncio: nothing here speaks
TLS, and a process that never maps OpenSSL serves in less memory (see
:mod:`repro.util.nossl`).
"""

import sys

from repro.util.nossl import refuse_ssl

refuse_ssl()

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
