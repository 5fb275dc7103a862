"""Every example script must run cleanly — they are living documentation."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

#: Examples are the API's living documentation, so a deprecated call in
#: one fails its run instead of printing a warning nobody reads.
PYTHON = [sys.executable, "-W", "error::DeprecationWarning"]

SCRIPTS = [
    "quickstart.py",
    "search_and_browse.py",
    "faulty_channel_recovery.py",
    "html_extraction.py",
    "adaptive_redundancy.py",
    "cluster_prefetching.py",
    "disconnected_browsing.py",
]


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script):
    result = subprocess.run(
        [*PYTHON, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_reproduce_evaluation_fast_artifacts():
    """The evaluation driver handles artifact selection and the quick
    analytic figures end-to-end."""
    result = subprocess.run(
        [
            *PYTHON,
            str(EXAMPLES_DIR / "reproduce_evaluation.py"),
            "table1",
            "table2",
            "fig3",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "Table 1" in result.stdout
    assert "Figure 3" in result.stdout


def test_reproduce_evaluation_rejects_unknown():
    result = subprocess.run(
        [*PYTHON, str(EXAMPLES_DIR / "reproduce_evaluation.py"), "fig99"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert "unknown artifact" in result.stdout
