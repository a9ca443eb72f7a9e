"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_parse(self):
        parser = build_parser()
        cases = (["fig7"], ["attach"], ["table1"], ["fig8"],
                 ["fig9"], ["fig10"], ["fig10", "--single-drive"],
                 ["report", "--scale", "0.2"], ["churn"],
                 ["chaos"], ["chaos", "--smoke"],
                 ["chaos", "--loss", "0.05", "--revoke-every", "10",
                  "--outage-at", "2.0", "--json"],
                 ["trace", "--scenario", "chaos", "--format", "jsonl"],
                 ["metrics", "--scenario", "chaos"],
                 ["broker-scale", "--smoke"],
                 ["broker-scale", "--rat", "lte", "--shards", "1,8",
                  "--adaptive-window"],
                 ["broker-ha", "--smoke"], ["fleet-drive", "--smoke"],
                 ["megaload", "--smoke"],
                 ["megaload", "--ues", "1000000", "--real-fraction",
                  "0.001", "--kpi-output", "kpi.json"],
                 ["observe", "--smoke"],
                 ["observe", "--bench", "broker-ha", "--rat", "lte",
                  "--html", "obs.html"])
        for argv in cases:
            args = parser.parse_args(argv)
            assert callable(args.func)
        subcommands = parser._subparsers._group_actions[0].choices
        assert len(subcommands) == 16
        assert {argv[0] for argv in cases} == set(subcommands)

    @pytest.mark.parametrize("argv", [
        ["megaload", "--engine", "legacy"], ["megaload", "--xl"],
        ["megaload", "--baseline", "x.json"],
        ["broker-scale", "--baseline", "x.json"]])
    def test_retired_options_are_gone(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_attach_arch_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attach", "--arch", "XX"])


class TestExecution:
    def test_attach_command_runs(self, capsys):
        assert main(["attach", "--arch", "CB", "--placement", "us-west-1",
                     "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "CB @ us-west-1" in out
        assert "agw+brokerd" in out

    def test_fig7_command_runs(self, capsys):
        assert main(["fig7", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "us-east-1" in out

    def test_chaos_command_runs_and_checks_invariants(self, capsys):
        assert main(["chaos", "--attaches", "10", "--loss", "0.05",
                     "--revoke-every", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "success rate" in out
        assert "unauthorized" in out
        assert "ok   unauthorized_session_seconds" in out
        assert "FAIL" not in out

    def test_chaos_smoke_writes_bench_json(self, tmp_path, capsys):
        import json

        from repro.emulation.chaos import SMOKE

        output = tmp_path / "BENCH_chaos.json"
        assert main(["chaos", "--smoke", "--output", str(output)]) == 0
        payload = json.loads(output.read_text())
        assert payload["violations"] == []
        assert payload["unauthorized_session_seconds"] == 0.0
        assert payload["success_rate"] >= 0.95
        assert payload["attaches_requested"] == SMOKE["attaches"]
        out = capsys.readouterr().out
        assert "ok   success_rate" in out and "FAIL" not in out

    def test_chaos_json_keeps_stdout_parseable(self, capsys):
        import json

        assert main(["chaos", "--attaches", "5", "--json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["violations"] == []
        assert "ok   unauthorized_session_seconds" in captured.err

    def test_table1_subset_runs(self, capsys):
        assert main(["table1", "--scale", "0.1", "--routes",
                     "downtown"]) == 0
        out = capsys.readouterr().out
        assert "downtown" in out
        assert "CellBricks" in out
