"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "res"])
        assert args.scheme == "baseline"
        assert args.batch == 1
        assert args.device == "MI100"

    def test_bad_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "res", "--scheme", "magic"])

    def test_bad_device_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "res", "--device", "H100"])


class TestCommands:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "alexnet" in out
        assert "swin_v2_b" in out

    def test_serve_cold(self, capsys):
        assert main(["serve", "alex", "--scheme", "pask"]) == 0
        out = capsys.readouterr().out
        assert "cold start under PaSK" in out
        assert "loads:" in out

    def test_serve_hot(self, capsys):
        assert main(["serve", "alex", "--hot"]) == 0
        assert "hot run" in capsys.readouterr().out

    def test_serve_batch(self, capsys):
        assert main(["serve", "alex", "--batch", "4"]) == 0
        assert "batch 4" in capsys.readouterr().out

    def test_experiment_fig9(self, capsys):
        assert main(["experiment", "fig9"]) == 0
        out = capsys.readouterr().out
        assert "hit_rate" in out
        assert "average" in out

    def test_experiment_table2_smoke(self, capsys):
        # table2 sweeps batches and is slow; keep to parser sanity only.
        args = build_parser().parse_args(["experiment", "table2"])
        assert args.name == "table2"

    def test_session(self, capsys):
        assert main(["session", "alex", "--requests", "2",
                     "--interval-ms", "30"]) == 0
        out = capsys.readouterr().out
        assert "request 0" in out and "request 1" in out

    def test_session_no_preload(self, capsys):
        assert main(["session", "alex", "--requests", "2",
                     "--no-preload"]) == 0
        assert "interval preload off" in capsys.readouterr().out

    def test_cluster(self, capsys):
        assert main(["cluster", "alex", "--rate", "10", "--duration", "1",
                     "--scheme", "ideal"]) == 0
        out = capsys.readouterr().out
        assert "cold starts" in out
        assert "p99" in out

    @pytest.mark.parametrize("argv", [
        ["serve", "bogus"],
        ["session", "bogus", "--requests", "1"],
        ["cluster", "bogus", "--duration", "1"],
    ], ids=["serve", "session", "cluster"])
    def test_unknown_model_is_one_line_error(self, capsys, argv):
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: unknown model 'bogus'; known models:")
        assert out.count("\n") == 1


class TestBenchCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert not args.quick
        assert args.jobs == 1
        assert not args.no_cache
        assert args.cache_dir == ".repro-cache"
        assert args.baseline is None
        assert args.tolerance == 0.05

    def test_quick_bench_writes_valid_report(self, tmp_path, capsys):
        import json
        import os
        from repro.runner import validate_report
        code = main(["bench", "--quick", "--jobs", "2",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--output", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "grid 'quick'" in out
        reports = [name for name in os.listdir(tmp_path)
                   if name.startswith("BENCH_") and name.endswith(".json")]
        assert len(reports) == 1
        with open(tmp_path / reports[0], encoding="utf-8") as handle:
            payload = json.load(handle)
        assert validate_report(payload) == []

    def test_bench_regression_gate(self, tmp_path, capsys):
        import json
        import os
        cache = str(tmp_path / "cache")
        assert main(["bench", "--quick", "--cache-dir", cache,
                     "--output", str(tmp_path)]) == 0
        report = [name for name in os.listdir(tmp_path)
                  if name.startswith("BENCH_")][0]
        baseline = str(tmp_path / report)
        # Identical warm rerun: no regressions, exit 0.
        assert main(["bench", "--quick", "--cache-dir", cache,
                     "--no-report", "--baseline", baseline]) == 0
        # Tighten the baseline artificially: every cold cell regresses.
        with open(baseline, encoding="utf-8") as handle:
            doctored = json.load(handle)
        for cell in doctored["cells"]:
            if "total_time_s" in cell:
                cell["total_time_s"] *= 0.5
        with open(baseline, "w", encoding="utf-8") as handle:
            json.dump(doctored, handle)
        capsys.readouterr()
        assert main(["bench", "--quick", "--cache-dir", cache,
                     "--no-report", "--baseline", baseline]) == 1
        assert "regression" in capsys.readouterr().out.lower()

    def test_experiment_jobs_flag(self, capsys):
        args = build_parser().parse_args(
            ["experiment", "fig6a", "--jobs", "4"])
        assert args.jobs == 4


class TestFleetCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.model == "res"
        assert args.devices == "MI100,A100"
        assert args.routing == "warm-first"
        assert args.autoscale == "none"
        assert not args.frontier

    def test_bad_routing_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--routing", "random"])

    def test_scenario_reports_regions_and_conservation(self, capsys):
        assert main(["fleet", "res", "--devices", "MI100,A100",
                     "--routing", "least-queue", "--arrival", "bursty",
                     "--rate", "4", "--duration", "8",
                     "--tenants", "2"]) == 0
        out = capsys.readouterr().out
        assert "r0 [MI100]" in out
        assert "r1 [A100]" in out
        assert "tenant t0" in out
        assert "availability" in out

    def test_scale_to_zero_without_timeout_errors(self, capsys):
        assert main(["fleet", "res", "--autoscale",
                     "scale-to-zero"]) == 2
        assert "idle_timeout_s" in capsys.readouterr().out

    def test_single_region_delegates(self, capsys):
        assert main(["fleet", "res", "--devices", "MI100",
                     "--routing", "single", "--duration", "6"]) == 0
        assert "single-cluster fast path" in capsys.readouterr().out

    def test_frontier_writes_report(self, tmp_path, capsys):
        import json

        from repro.runner import validate_report

        report_path = tmp_path / "frontier.json"
        code = main(["fleet", "--frontier", "--output",
                     str(report_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "frontier[pask]" in out
        assert "PASS" in out
        payload = json.loads(report_path.read_text())
        assert validate_report(payload) == []
        assert payload["fleet_frontier"]["pass"] is True

    def test_bench_fleet_flag_parses(self):
        args = build_parser().parse_args(["bench", "--quick", "--fleet"])
        assert args.fleet


class TestReportCommands:
    """``chaos --resilience``, ``chaos --packs`` and ``fleet --frontier``
    print their verdict and write exactly the library's report."""

    @pytest.mark.parametrize("argv, name, verdict", [
        (["chaos", "res", "--resilience"], "chaos",
         "2/2 scenarios passed"),
        (["chaos", "res", "--packs"], "packs", "packs ladder: PASS"),
        (["fleet", "--frontier"], "fleet-frontier",
         "verdict: PASS — PaSK shifts the scale-to-zero frontier below "
         "Baseline at equal availability"),
    ], ids=["resilience", "packs", "frontier"])
    def test_report_output_matches_library(self, tmp_path, capsys, argv,
                                           name, verdict):
        import json

        from repro.runner import comparison_report, report_json

        path = tmp_path / "report.json"
        assert main(argv + ["--output", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [f"wrote {path}", verdict]
        payload = json.loads(path.read_text(encoding="utf-8"))
        expected, passed = comparison_report(name, created_unix=0.0)
        assert passed
        del payload["run"], expected["run"]
        assert report_json(payload) == report_json(expected)

    @pytest.mark.parametrize("flag", ["--resilience", "--packs"])
    @pytest.mark.parametrize("value", ["nan", "1.5", "-0.5"])
    def test_out_of_range_availability_is_one_line_error(
            self, capsys, monkeypatch, flag, value):
        from repro.runner import reports

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("replayed legs with an invalid gate")
        monkeypatch.setattr(reports, "run_tasks", boom)
        assert main(["chaos", "res", flag, "--min-availability",
                     value]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: min_availability must lie in [0, 1]")
        assert out.count("\n") == 1

    def test_resilience_and_packs_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "res", "--resilience", "--packs"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    @pytest.fixture
    def no_replay(self, monkeypatch):
        from repro.fleet import FleetSimulator
        from repro.runner import reports
        from repro.serving.server import InferenceServer

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("replayed with an ignored flag")
        monkeypatch.setattr(reports, "run_tasks", boom)
        monkeypatch.setattr(FleetSimulator, "run", boom)
        monkeypatch.setattr(InferenceServer, "serve_cold", boom)

    @pytest.mark.parametrize("flags, named", [
        (["--devices", "A100"], "--devices"),
        (["--rate", "99"], "--rate"),
        (["--scheme", "baseline"], "--scheme"),
        (["--routing", "single"], "--routing"),
        (["--autoscale", "fixed"], "--autoscale"),
        (["--duration", "5"], "--duration"),
        (["--telemetry"], "--telemetry"),
        (["--scheme", "baseline", "--devices", "A100", "--rate", "99"],
         "--scheme, --devices, --rate"),
    ])
    def test_frontier_rejects_scenario_flags(self, capsys, no_replay, flags,
                                             named):
        assert main(["fleet", "--frontier", *flags]) == 2
        assert capsys.readouterr().out == (
            f"error: --frontier runs a fixed scenario and would ignore "
            f"{named}\n")

    @pytest.mark.parametrize("mode", ["--resilience", "--packs"])
    @pytest.mark.parametrize("flags, named", [
        (["--rate", "99"], "--rate"),
        (["--seed", "3", "--crash-rate", "0.5"], "--seed, --crash-rate"),
        (["--scheme", "baseline"], "--scheme"),
        (["--timeline"], "--timeline"),
    ])
    def test_chaos_reports_reject_scenario_flags(self, capsys, no_replay,
                                                 mode, flags, named):
        assert main(["chaos", "res", mode, *flags]) == 2
        assert capsys.readouterr().out == (
            f"error: {mode} runs a fixed scenario and would ignore "
            f"{named}\n")

    def test_device_without_frontier_is_one_line_error(self, capsys,
                                                       no_replay):
        assert main(["fleet", "res", "--device", "A100"]) == 2
        assert capsys.readouterr().out == (
            "error: --device needs --frontier (a scenario's regions come "
            "from --devices)\n")

    @pytest.mark.parametrize("flags, message", [
        (["--min-availability", "5"],
         "--min-availability needs --resilience or --packs"),
        (["--min-availability", "0.5"],
         "--min-availability needs --resilience or --packs"),
        (["--jobs", "2"], "--jobs needs --resilience or --packs"),
        (["--jobs", "2", "--min-availability", "0.5"],
         "--jobs and --min-availability need --resilience or --packs"),
    ])
    def test_report_flags_without_report_are_one_line_error(
            self, capsys, no_replay, flags, message):
        assert main(["chaos", "res", *flags]) == 2
        assert capsys.readouterr().out == f"error: {message}\n"

    @pytest.mark.parametrize("argv, needs", [
        (["chaos", "res"], "--resilience or --packs"),
        (["fleet", "res"], "--frontier"),
    ], ids=["chaos", "fleet"])
    def test_output_without_report_is_one_line_error(self, tmp_path, capsys,
                                                     argv, needs):
        path = tmp_path / "report.json"
        assert main(argv + ["--output", str(path)]) == 2
        assert capsys.readouterr().out == f"error: --output needs {needs}\n"
        assert not path.exists()
