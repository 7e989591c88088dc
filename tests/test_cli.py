"""Tests of the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_ids_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_profile_query_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "-q", "23"])

    def test_defaults(self):
        args = build_parser().parse_args(["calibrate"])
        assert args.scale == 16 and args.tier == "100MB"

    def test_verbose_accepted_before_or_after_command(self):
        args = build_parser().parse_args(["-vv", "trace", "SELECT 1"])
        assert args.verbose == 2
        args = build_parser().parse_args(["trace", "-v", "SELECT 1"])
        assert args.verbose == 1
        args = build_parser().parse_args(["trace", "SELECT 1"])
        assert args.verbose == 0

    def test_trace_statement_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.out == "BENCH_simperf.json"
        assert args.quick is False and args.check is None
        assert args.max_regression == 0.30
        args = build_parser().parse_args(
            ["bench", "--quick", "--check", "base.json",
             "--max-regression", "0.5"]
        )
        assert args.quick and args.check == "base.json"
        assert args.max_regression == 0.5


class TestCommands:
    def test_calibrate(self, capsys):
        assert main(["calibrate", "--scale", "16"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out and "Table 3" in out

    def test_profile_one_query(self, capsys):
        assert main(["profile", "--tier", "10MB", "-q", "6",
                     "--engine", "sqlite"]) == 0
        out = capsys.readouterr().out
        assert "Q6" in out and "E_L1D%" in out

    def test_sql(self, capsys):
        assert main(["sql", "--tier", "10MB",
                     "SELECT COUNT(*) FROM orders"]) == 0
        out = capsys.readouterr().out
        assert "E_active" in out

    def test_experiment(self, capsys):
        assert main(["experiment", "tab01"]) == 0
        out = capsys.readouterr().out
        assert "tab01" in out and "PASS" in out

    def test_calibrate_json(self, capsys):
        assert main(["calibrate", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["delta_e_nj"]["dE_L1D"] > 0
        assert data["verification"]["average_accuracy_pct"] > 90
        assert data["verification"]["rows"]

    def test_profile_json(self, capsys):
        assert main(["profile", "--tier", "10MB", "-q", "6", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        q6 = data["queries"]["Q6"]
        assert q6["active_energy_j"] > 0
        assert set(q6["components_j"]) == set(q6["shares_pct"])
        assert sum(q6["shares_pct"].values()) == pytest.approx(100.0)


class TestTraceCommand:
    def test_trace_exports_and_balances(self, capsys, tmp_path):
        out_dir = tmp_path / "traces"
        assert main(["trace", "--tier", "10MB", "--out", str(out_dir),
                     "--metrics", "SELECT COUNT(*) FROM region"]) == 0
        out = capsys.readouterr().out
        assert "SeqScan(region)" in out
        assert "span-sum" in out
        assert "cache.hit_rate{level=L1D}" in out

        records = [json.loads(line) for line in
                   (out_dir / "trace.jsonl").read_text().splitlines()]
        assert records[0]["record"] == "trace"
        span_sum = sum(r["self"]["active_j"] for r in records[1:])
        assert span_sum == pytest.approx(records[0]["total_active_j"],
                                         rel=0.01)
        # Spans were priced: the dE table travelled into the export.
        assert "breakdown_j" in records[1]["self"]

        chrome = json.loads((out_dir / "trace.chrome.json").read_text())
        assert any(e["ph"] == "X" for e in chrome["traceEvents"])
        assert (out_dir / "trace.svg").read_text().startswith("<svg")

    def test_profile_trace_out(self, capsys, tmp_path):
        out_dir = tmp_path / "ptraces"
        assert main(["profile", "--tier", "10MB", "-q", "6",
                     "--trace-out", str(out_dir)]) == 0
        assert (out_dir / "q06.jsonl").exists()
        assert (out_dir / "q06.chrome.json").exists()
        assert (out_dir / "q06.svg").exists()


class TestVersionAndErrors:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_repro_error_is_one_line_exit_2(self, capsys):
        assert main(["sql", "--tier", "10MB",
                     "SELECT * FROM nowhere"]) == 2
        err = capsys.readouterr().err
        last = err.strip().splitlines()[-1]  # progress notes may precede
        assert last.startswith("repro sql: error:")
        assert "nowhere" in last
        assert "Traceback" not in err

    def test_invalid_choice_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--workload", "oltp-9000"])
        assert exc.value.code != 0

    def test_serve_config_error_exit_2(self, capsys):
        assert main(["serve", "--clients", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro serve: error:")
        assert "client" in err


class TestServeCommand:
    def test_parse_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.workload == "tpch" and args.policy == "fifo"
        assert args.clients == 4 and args.mode == "closed"
        assert args.dvfs == "race" and args.seed == 0

    def test_serve_emits_report(self, capsys):
        assert main(["serve", "--workload", "basic", "--tier", "10MB",
                     "--clients", "2", "--queries", "4",
                     "--cores", "1", "--seed", "11"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["completed"] == 4
        assert report["energy"]["check_sum_j"] == pytest.approx(
            report["energy"]["total_active_j"], rel=1e-12)

    def test_serve_out_file_deterministic(self, tmp_path, capsys):
        argv = ["serve", "--workload", "basic", "--tier", "10MB",
                "--clients", "4", "--queries", "8", "--seed", "5"]
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_text() == out_b.read_text()


class TestChaosCommand:
    ARGV = ["chaos", "--workload", "basic", "--tier", "10MB",
            "--clients", "2", "--queries", "4", "--cores", "1",
            "--seed", "11"]

    def test_parse_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.scenario == "mixed"
        assert args.retries == 2 and args.retry_backoff == 0.005
        assert args.breaker_threshold is None and args.deadline is None
        assert args.request_error_p is None  # flags override the scenario

    def test_chaos_prints_summary(self, capsys):
        assert main(self.ARGV + ["--scenario", "flaky"]) == 0
        out = capsys.readouterr().out
        assert "counts:" in out and "resilience: faults=" in out
        assert "useful=" in out and "wasted=" in out

    def test_chaos_json_has_resilience_section(self, capsys):
        assert main(self.ARGV + ["--scenario", "flaky", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "resilience" in report
        assert report["config"]["faults"]["request_error_p"] > 0
        energy = report["energy"]
        assert (energy["useful_energy_j"] + energy["wasted_energy_j"]
                == energy["active_energy_j"])

    def test_chaos_out_file_deterministic(self, tmp_path, capsys):
        argv = self.ARGV + ["--scenario", "mixed", "--seed", "7"]
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_text() == out_b.read_text()

    def test_flag_overrides_scenario(self, capsys):
        assert main(self.ARGV + ["--scenario", "none",
                                 "--request-error-p", "0.25",
                                 "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["faults"]["request_error_p"] == 0.25

    def test_bad_probability_exits_2(self, capsys):
        assert main(self.ARGV + ["--corrupt-p", "2.0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro chaos: error:")
        assert "Traceback" not in err
