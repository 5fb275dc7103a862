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
