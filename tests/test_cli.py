"""Tests for the command-line interface."""

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
