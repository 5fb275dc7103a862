"""The sans-IO import DAG holds (tier-1 mirror of the CI lint)."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_layering  # noqa: E402


class TestLayeringLint:
    def test_tree_is_clean(self):
        assert check_layering.check_tree(REPO / "src" / "repro") == []

    def test_cli_exit_status(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_layering.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "layering OK" in proc.stdout

    def test_violation_detected(self, tmp_path):
        pkg = tmp_path / "repro"
        (pkg / "protocol").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "protocol" / "__init__.py").write_text("")
        (pkg / "protocol" / "bad.py").write_text(
            "from repro.transport.channel import WirelessChannel\n"
        )
        violations = check_layering.check_tree(pkg)
        assert len(violations) == 1
        assert "repro.protocol.bad imports repro.transport.channel" in violations[0]

    def test_driver_importing_session_detected(self, tmp_path):
        pkg = tmp_path / "repro"
        (pkg / "simulation").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "simulation" / "__init__.py").write_text("")
        (pkg / "simulation" / "bad.py").write_text(
            "import repro.transport.session\n"
        )
        violations = check_layering.check_tree(pkg)
        assert len(violations) == 1
        assert "repro.simulation.bad imports repro.transport.session" in violations[0]

    def test_store_direction_detected(self, tmp_path):
        # The serving and prep layers never reach up into a store
        # adapter or the CLI.
        pkg = tmp_path / "repro"
        for layer in ("net", "prep"):
            (pkg / layer).mkdir(parents=True)
            (pkg / layer / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "net" / "bad.py").write_text(
            "from repro.prototype.netmode import BrokerDocumentStore\n"
        )
        (pkg / "prep" / "bad.py").write_text("import repro.cli\n")
        violations = check_layering.check_tree(pkg)
        assert len(violations) == 2
        assert "repro.net.bad imports repro.prototype.netmode (store direction" in violations[0]
        assert "repro.prep.bad imports repro.cli (store direction" in violations[1]

    def test_peer_split_detected(self, tmp_path):
        # The client and server sides of repro.net share only the
        # wire codec; server-side modules may still import each other.
        pkg = tmp_path / "repro"
        (pkg / "net").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "net" / "__init__.py").write_text("")
        (pkg / "net" / "chaos.py").write_text("from repro.net.server import NetServer\n")
        (pkg / "net" / "workers.py").write_text(
            "import repro.net.loadgen\nfrom repro.net.server import NetServer\n"
        )
        (pkg / "net" / "client.py").write_text("from repro.net.wire import WireError\n")
        violations = check_layering.check_tree(pkg)
        assert len(violations) == 2
        assert "repro.net.chaos imports repro.net.server (peer split" in violations[0]
        assert "repro.net.workers imports repro.net.loadgen (peer split" in violations[1]

    def test_compact_sc_stays_below_the_tree(self, tmp_path):
        # The compact SC may use the text substrate, never the rest of
        # repro.core; the tree modules may import it.
        pkg = tmp_path / "repro"
        (pkg / "core").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "core" / "__init__.py").write_text("")
        (pkg / "core" / "compact.py").write_text(
            "from repro.text.vector import OccurrenceVector\n"
            "from repro.core.lod import LOD\n"
        )
        (pkg / "core" / "structure.py").write_text(
            "from repro.core.compact import CompactSC\n"
        )
        violations = check_layering.check_tree(pkg)
        assert len(violations) == 1
        assert "repro.core.compact imports repro.core.lod" in violations[0]

    def test_core_stays_below_the_serving_stack(self, tmp_path):
        # repro.core may use the text, xmlkit, obs and util substrate;
        # whatever drives a transfer belongs to repro.browse.
        pkg = tmp_path / "repro"
        (pkg / "core").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "core" / "__init__.py").write_text("")
        (pkg / "core" / "ok.py").write_text(
            "from repro.text.vector import OccurrenceVector\n"
            "from repro.xmlkit.dom import Element\n"
            "from repro.obs.runtime import OBS\n"
            "from repro.util.lazy import lazy_exports\n"
            "from repro.core.lod import LOD\n"
        )
        (pkg / "core" / "bad.py").write_text(
            "from repro.prep import DocumentSender\n"
            "import repro.transport.session\n"
        )
        violations = check_layering.check_tree(pkg)
        assert len(violations) == 2
        assert "repro.core.bad imports repro.prep (repro.core sits below" in violations[0]
        assert "repro.core.bad imports repro.transport.session" in violations[1]

    def test_only_the_digest_helper_imports_hashlib(self, tmp_path):
        pkg = tmp_path / "repro"
        (pkg / "util").mkdir(parents=True)
        (pkg / "prep").mkdir()
        for init in ("__init__.py", "util/__init__.py", "prep/__init__.py"):
            (pkg / init).write_text("")
        (pkg / "util" / "nossl.py").write_text("from hashlib import sha256\n")
        (pkg / "util" / "rngtools.py").write_text("from repro.util.nossl import sha256\n")
        (pkg / "prep" / "bad.py").write_text("import hashlib\nimport hashlib_extras\n")
        (pkg / "cli.py").write_text("from hashlib import sha256\n")
        violations = check_layering.check_tree(pkg)
        assert len(violations) == 2
        assert "repro.cli imports hashlib (one SHA-256 import site" in violations[0]
        assert "repro.prep.bad imports hashlib (one SHA-256 import site" in violations[1]

    def test_snapshot_counted_parts_keep_no_obs_counter(self, tmp_path):
        # A serving part counts each fact once, in the stats its
        # snapshot exports; the client side and trace events are free.
        pkg = tmp_path / "repro"
        for layer in ("net", "obs"):
            (pkg / layer).mkdir(parents=True)
            (pkg / layer / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        counter = 'from repro.obs.runtime import OBS\nOBS.metrics.counter("x").inc()\n'
        (pkg / "net" / "server.py").write_text(counter)
        (pkg / "net" / "client.py").write_text(counter)
        (pkg / "obs" / "slo.py").write_text(
            "from repro.obs.runtime import OBS\nOBS.trace.emit('x')\n"
        )
        violations = check_layering.check_tree(pkg)
        assert len(violations) == 1
        assert "server.py:2: repro.net.server reads OBS.metrics" in violations[0]

    def test_server_side_keeps_off_the_default_executor(self, tmp_path):
        # Prepares run on the server's one prep thread; the client side
        # and an explicit executor are free.
        pkg = tmp_path / "repro"
        (pkg / "net").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "net" / "__init__.py").write_text("")
        default = "async def f(loop, g):\n    await loop.run_in_executor(None, g)\n"
        keyword = "async def h(loop, g):\n    await loop.run_in_executor(executor=None, func=g)\n"
        (pkg / "net" / "server.py").write_text(
            "async def f(loop, pool, g):\n    await loop.run_in_executor(pool, g)\n"
        )
        (pkg / "net" / "workers.py").write_text(default + keyword)
        (pkg / "net" / "client.py").write_text(default)
        violations = check_layering.check_tree(pkg)
        assert len(violations) == 2
        assert all("repro.net.workers calls run_in_executor" in v for v in violations)
        assert "workers.py:2:" in violations[0] and "workers.py:4:" in violations[1]

    def test_prep_service_keeps_off_the_default_executor(self, tmp_path):
        # The service builds under its own lock; a hop onto asyncio's
        # default executor would bring back threads it cannot use.
        pkg = tmp_path / "repro"
        (pkg / "prep").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "prep" / "__init__.py").write_text("")
        default = "async def f(loop, g):\n    await loop.run_in_executor(None, g)\n"
        (pkg / "prep" / "service.py").write_text(default)
        (pkg / "prep" / "diskstore.py").write_text(default)
        violations = check_layering.check_tree(pkg)
        assert len(violations) == 1
        assert "service.py:2: repro.prep.service calls run_in_executor" in violations[0]

    def test_one_percentile_rule(self, tmp_path):
        # Samples go through repro.util.stats, bucket counts through
        # repro.obs.slo; a private copy anywhere else is a violation.
        pkg = tmp_path / "repro"
        for layer in ("util", "obs", "simulation"):
            (pkg / layer).mkdir(parents=True)
            (pkg / layer / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "util" / "stats.py").write_text("def percentile(v, p):\n    pass\n")
        (pkg / "obs" / "slo.py").write_text("def _bucket_percentile(c, p):\n    pass\n")
        (pkg / "simulation" / "broadcast.py").write_text(
            "def _percentile(v, p):\n    pass\n\n"
            "class Sketch:\n    async def Quantile(self, q):\n        pass\n"
        )
        violations = check_layering.check_tree(pkg)
        assert len(violations) == 2
        assert "broadcast.py:1: repro.simulation.broadcast defines _percentile" in violations[0]
        assert "broadcast.py:5: repro.simulation.broadcast defines Quantile" in violations[1]
        assert all("one percentile rule" in v for v in violations)

    def test_sibling_module_prefix_not_confused(self, tmp_path):
        # repro.transport.session_helpers is NOT repro.transport.session.
        pkg = tmp_path / "repro"
        (pkg / "prototype").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "prototype" / "__init__.py").write_text("")
        (pkg / "prototype" / "ok.py").write_text(
            "import repro.transport.session_helpers\n"
        )
        assert check_layering.check_tree(pkg) == []
