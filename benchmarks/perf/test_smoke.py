"""Quick end-to-end run: every BENCHMARK.json metric is printed with its unit.

Marked ``net`` (it launches servers on loopback); run it with
``PYTHONPATH=src python -m pytest benchmarks/perf -m net``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.net

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_quick_run_prints_every_metric_with_its_unit(tmp_path):
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(tmp_path / "r.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.splitlines()
    printed = {tuple(line.split()[:1] + line.split()[2:3]) for line in lines if line.startswith("  ")}
    workloads = [w["name"] for w in config["workloads"]]
    for metric in config["end_to_end"] + config["per_layer"]:
        assert (metric["name"], metric["unit"]) in printed, metric["name"]
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in workloads:
        for metric in config["end_to_end"] + config["per_layer"]:
            entry = result["metrics"][f"{workload}/{metric['name']}"]
            assert entry["unit"] == metric["unit"]
    runs = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["runs"]
    assert [r["workload"] for r in runs] == workloads
    for run in runs:
        # The span checks (layers.trace_invalid_reasons) hold on both sides.
        assert run["trace_invalid_reasons"] == [], run["trace_invalid_reasons"]
