"""Tests for the command-line interface."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.data import draft_paper_path

DRAFT = str(draft_paper_path())


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_seed_echoed_in_transfer_output(self, capsys):
        assert main(["transfer", DRAFT, "--alpha", "0.2", "--seed", "5"]) == 0
        assert "seed=5" in capsys.readouterr().out


class TestSc:
    def test_prints_tree(self, capsys):
        assert main(["sc", DRAFT]) == 0
        out = capsys.readouterr().out
        assert "# measure: ic" in out
        assert "document" in out
        assert "0.0.1" in out

    def test_query_switches_measure(self, capsys):
        assert main(["sc", DRAFT, "--query", "browsing mobile web"]) == 0
        assert "# measure: mqic" in capsys.readouterr().out

    def test_html_input(self, tmp_path, capsys):
        page = tmp_path / "page.html"
        page.write_text("<h1>Wireless</h1><p>Mobile web browsing content.</p>")
        assert main(["sc", str(page), "--html"]) == 0
        assert "section" in capsys.readouterr().out


class TestSchedule:
    def test_cumulative_reaches_one(self, capsys):
        assert main(["schedule", DRAFT, "--lod", "paragraph"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        last = out[-1]
        assert "cumulative= 1.0000" in last or "cumulative=  1.0000" in last.replace("1.00000", "1.0000")

    def test_lod_choices_enforced(self):
        with pytest.raises(SystemExit):
            main(["schedule", DRAFT, "--lod", "chapter"])


class TestPlan:
    def test_output(self, capsys):
        assert main(["plan", "--m", "40", "--alpha", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "N=48" in out
        assert "gamma=1.200" in out


class TestTransfer:
    def test_successful_transfer(self, capsys):
        code = main(
            ["transfer", DRAFT, "--alpha", "0.2", "--cache", "--seed", "1"]
        )
        assert code == 0
        assert "ok:" in capsys.readouterr().out

    def test_early_stop(self, capsys):
        code = main(
            ["transfer", DRAFT, "--alpha", "0.0", "--stop-at", "0.3"]
        )
        assert code == 0
        assert "early-stop" in capsys.readouterr().out

    def test_failure_exit_code(self, capsys):
        # gamma=1.0 on a terrible channel cannot finish; CLI signals it.
        code = main(
            [
                "transfer", DRAFT,
                "--alpha", "0.8", "--gamma", "1.0", "--seed", "2",
            ]
        )
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_chaos_model_replays_the_seeded_schedule(self, capsys):
        # The same line the removed per-flag corrupt option printed at
        # 0.1: the spec owns the fault schedule, seeded by --seed.
        code = main(
            ["transfer", DRAFT, "--chaos-model", "iid:corrupt=0.1", "--seed", "3"]
        )
        assert code == 0
        assert capsys.readouterr().out == (
            "ok: 4.01s, 1 round(s), 37 frames (M=33, N=50), "
            "content=1.000, seed=3\n"
        )


class TestSettingsFlags:
    @pytest.mark.parametrize("argv", [
        [],
        ["--no-cache", "--stop-at", "0.4"],
        ["--max-rounds", "7", "--round-timeout", "2.5", "--max-reconnects", "0"],
    ])
    def test_fetch_and_loadgen_build_the_same_settings(self, argv):
        from repro.cli import _client_settings, build_parser

        parser = build_parser()
        fetch = parser.parse_args(["net", "fetch", "doc", *argv])
        loadgen = parser.parse_args(["net", "loadgen", "doc", *argv])
        assert fetch.cache == loadgen.cache
        assert _client_settings(fetch) == _client_settings(loadgen)


class TestDocumentFlags:
    @pytest.mark.parametrize("argv", [
        [],
        ["--html", "--query", "mobile web", "--lod", "section"],
        ["--gamma", "2.0", "--packet-size", "64", "--max-rounds", "7"],
    ])
    def test_transfer_and_serve_build_the_same_request(self, argv):
        from repro.cli import _document_request, build_parser

        parser = build_parser()
        transfer = parser.parse_args(["transfer", DRAFT, *argv])
        serve = parser.parse_args(["net", "serve", DRAFT, *argv])
        for dest in ("html", "query", "lod", "gamma", "packet_size", "max_rounds"):
            assert getattr(transfer, dest) == getattr(serve, dest), dest
        assert _document_request(transfer) == _document_request(serve)

    def test_serve_flags_become_one_worker_config(self):
        from repro.cli import _document_request, _serve_config, build_parser
        from repro.net.workers import HAVE_REUSE_PORT

        parser = build_parser()
        argv = ["net", "serve", DRAFT, "--query", "mobile web",
                "--max-rounds", "7", "--round-timeout", "2.5", "--warmup"]
        single = parser.parse_args(argv)
        config = _serve_config(single)
        assert config.paths == (DRAFT,)
        assert config.default_request == _document_request(single)
        assert (config.max_rounds, config.round_timeout) == (7, 2.5)
        assert config.warmup is True
        # Only pool members share a port.
        assert config.reuse_port is False
        pool = _serve_config(parser.parse_args([*argv, "--workers", "2"]))
        assert pool.reuse_port is HAVE_REUSE_PORT


class TestDeliveryFlag:
    def test_fetch_accepts_delivery_choices(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["net", "fetch", "doc", "--delivery", "carousel"]
        )
        assert args.delivery == "carousel"
        with pytest.raises(SystemExit):
            parser.parse_args(["net", "fetch", "doc", "--delivery", "anycast"])

    def test_serve_carousel_excludes_broker_and_workers(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["net", "serve", DRAFT, "--carousel"])
        assert args.carousel is True
        assert args.carousel_schedule == "flat"
        # Each refused combination returns before anything binds or
        # spawns a worker.
        for flags, message in [
            (["--carousel", "--via-broker"],
             "error: --carousel is not supported with --via-broker"),
            (["--carousel", "--workers", "2"],
             "error: --carousel is not supported with --workers > 1"),
            (["--via-broker", "--workers", "2"],
             "error: --workers is not supported with --via-broker"),
        ]:
            assert main(["net", "serve", DRAFT, "--port", "0", *flags]) == 2, flags
            assert capsys.readouterr().out.strip() == message


@pytest.mark.net
def test_sigterm_drains_single_process_serve():
    """SIGTERM sent as soon as "listening on" shows drains ``net serve``:
    exit 0 with its ``served`` summary, as ctrl-c does."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "net", "serve", DRAFT, "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": "1"},
    )
    try:
        output = []
        for line in proc.stdout:
            output.append(line)
            if line.startswith("listening on"):
                proc.send_signal(signal.SIGTERM)
                break
        output.append(proc.stdout.read())
        assert proc.wait(timeout=30) == 0, "".join(output)
        assert "served 0 transfer(s)" in "".join(output)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


class TestFigure:
    def test_table2(self, capsys):
        assert main(["figure", "table2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_unknown(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown artifact" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["figure", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "fig2", "fig7"):
            assert name in out


class TestNetStats:
    def test_prep_line_sums_the_tiers_evictions_per_worker(self, capsys, monkeypatch):
        import repro.net

        def worker(sc, cooked):
            return {"prep_cache": {"sc": {"evictions": sc}, "cooked": {"evictions": cooked},
                                   "disk": {"bundles": 4}}}

        snapshot = {
            "server": {"completed": 3},
            "prep": {"sc_hits": 1, "sc_misses": 2, "cooked_hits": 5, "cooked_misses": 3},
            "workers": [worker(1, 2), worker(0, 4)],
        }

        async def fake_fetch_stats(host, port):
            return snapshot

        monkeypatch.setattr(repro.net, "fetch_stats", fake_fetch_stats)
        assert main(["net", "stats"]) == 0
        out = capsys.readouterr().out
        assert "prep: sc 1/2 hit/miss, cooked 5/3 hit/miss, 7 eviction(s)" in out
        # One server's snapshot carries its own tiers.
        del snapshot["workers"]
        snapshot.update(worker(2, 0))
        assert main(["net", "stats"]) == 0
        assert "2 eviction(s)" in capsys.readouterr().out
