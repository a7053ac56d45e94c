"""Tests for the ``ccf`` command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import EXPERIMENTS
from repro.network import Coflow, Flow
from repro.network.io import save_coflows


def exit_code(argv):
    """``main(argv)``'s exit status, also when the parser refuses a flag
    (argparse exits 2 before any handler runs)."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def error_lines(err):
    """The lines of ``err`` that are not argparse's usage block."""
    return [
        line for line in err.strip().splitlines()
        if not line.startswith(("usage:", " "))
    ]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nope"])

    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "fig5", "--quick", "--scale-factor", "2.5", "--markdown"]
        )
        assert args.quick and args.scale_factor == 2.5 and args.markdown


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert sorted(out) == sorted(EXPERIMENTS)

    def test_run_motivating(self, capsys):
        assert main(["run", "motivating"]) == 0
        out = capsys.readouterr().out
        assert "SP2" in out and "CCF" in out

    def test_run_quick_sweep(self, capsys):
        assert main(["run", "fig7", "--quick", "--nodes", "20"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "ccf_cct_s" in out

    def test_markdown_output(self, capsys):
        assert main(["run", "motivating", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("**")

    def test_run_quick_takes_the_sweep_grid(self, capsys):
        # psweep's quick grid stops at 5 partitions per node; the
        # default grid goes on to 15 and 30.
        assert main(["run", "psweep", "--quick", "--csv"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1", "2", "5"]


class TestSimulateFailureInjection:
    @pytest.fixture()
    def plan_file(self, tmp_path):
        path = str(tmp_path / "plan.json")
        assert main(
            ["plan", "--nodes", "6", "--scale-factor", "0.2", "--out", path]
        ) == 0
        return path

    def test_fail_port_with_replan(self, plan_file, capsys):
        assert main(
            ["simulate", plan_file, "--fail-port", "0", "--fail-at", "0.05",
             "--recover-at", "5", "--fail-direction", "ingress",
             "--recovery", "replan"]
        ) == 0
        out = capsys.readouterr().out
        assert "failures:" in out and "reroutes" in out

    def test_abort_exits_nonzero_and_reports(self, plan_file, capsys):
        assert main(
            ["simulate", plan_file, "--fail-port", "0", "--fail-at", "0.05",
             "--recovery", "abort"]
        ) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "coflows aborted" in out

    def test_chaos_run(self, plan_file, capsys):
        assert main(
            ["simulate", plan_file, "--chaos-mtbf", "1", "--chaos-mttr", "1",
             "--chaos-seed", "2", "--recovery", "retry"]
        ) == 0
        assert "failures:" in capsys.readouterr().out

    def test_failure_needs_recovery_policy(self, plan_file, capsys):
        assert main(
            ["simulate", plan_file, "--fail-port", "0"]
        ) == 2
        assert "--recovery" in capsys.readouterr().err

    def test_fail_port_and_chaos_exclusive(self, plan_file, capsys):
        assert main(
            ["simulate", plan_file, "--fail-port", "0", "--chaos-mtbf", "1",
             "--recovery", "retry"]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_fail_port_out_of_range(self, plan_file, capsys):
        assert main(
            ["simulate", plan_file, "--fail-port", "99",
             "--recovery", "retry"]
        ) == 2
        assert "out of range" in capsys.readouterr().err

    def test_recover_before_failure_is_a_clean_error(self, plan_file, capsys):
        assert main(
            ["simulate", plan_file, "--fail-port", "0", "--fail-at", "2",
             "--recover-at", "1", "--recovery", "retry"]
        ) == 2
        assert "invalid failure schedule" in capsys.readouterr().err

    def test_bad_chaos_config_is_a_clean_error(self, plan_file, capsys):
        assert exit_code(
            ["simulate", plan_file, "--chaos-mtbf", "-1",
             "--recovery", "retry"]
        ) == 2
        assert "argument --chaos-mtbf:" in capsys.readouterr().err


class TestSimulateWatchdog:
    @pytest.fixture()
    def plan_file(self, tmp_path):
        path = str(tmp_path / "plan.json")
        assert main(
            ["plan", "--nodes", "6", "--scale-factor", "0.2", "--out", path]
        ) == 0
        return path

    def test_epoch_budget_breach_exits_3_with_crash_report(
        self, plan_file, tmp_path, capsys
    ):
        crash_dir = tmp_path / "crashes"
        assert main(
            ["simulate", plan_file, "--max-epochs", "1",
             "--crash-dir", str(crash_dir)]
        ) == 3
        err = capsys.readouterr().err
        assert "watchdog abort" in err and "max_epochs" in err
        reports = list(crash_dir.glob("crash-*.json"))
        assert len(reports) == 1
        import json

        doc = json.loads(reports[0].read_text())
        assert doc["error"]["type"] == "BudgetExceeded"
        assert doc["context"]["max_epochs"] == 1

    def test_healthy_run_writes_no_crash_report(
        self, plan_file, tmp_path, capsys
    ):
        crash_dir = tmp_path / "crashes"
        assert main(
            ["simulate", plan_file, "--crash-dir", str(crash_dir)]
        ) == 0
        assert not crash_dir.exists()

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("simulate", ["--max-epochs", "0"]),
            ("simulate", ["--max-epochs", "-1"]),
            ("simulate", ["--wall-clock-budget", "0"]),
            ("simulate", ["--stall-epochs", "-1"]),
            ("serve", ["--max-epochs", "0"]),
            ("serve", ["--max-epochs", "-1"]),
            ("serve", ["--wall-clock-budget", "0"]),
        ],
    )
    def test_bad_watchdog_flag_is_a_usage_error(
        self, plan_file, tmp_path, capsys, command, flags
    ):
        crash_dir = tmp_path / "crashes"
        args = [plan_file] if command == "simulate" else ["--arrivals", "5"]
        assert exit_code(
            [command, *args, *flags, "--crash-dir", str(crash_dir)]
        ) == 2
        captured = capsys.readouterr()
        assert len(error_lines(captured.err)) == 1
        assert flags[0] in captured.err
        assert captured.out == ""
        assert not crash_dir.exists()


class TestSweepSupervision:
    def test_interrupt_exits_130_with_partial_summary(
        self, monkeypatch, capsys
    ):
        from repro.experiments import engine
        from repro.experiments.engine import SweepInterrupted

        def fake_run_sweep(spec, **kwargs):
            raise SweepInterrupted(3, 5)

        monkeypatch.setattr(engine, "run_sweep", fake_run_sweep)
        assert main(["sweep", "psweep", "--quick", "--no-cache"]) == 130
        err = capsys.readouterr().err
        assert "interrupted after 3/5 cells" in err

    def test_interrupt_with_cache_mentions_resume(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.experiments import engine
        from repro.experiments.engine import SweepInterrupted

        def fake_run_sweep(spec, **kwargs):
            raise SweepInterrupted(1, 5)

        monkeypatch.setattr(engine, "run_sweep", fake_run_sweep)
        assert main(
            ["sweep", "psweep", "--quick", "--cache-dir", str(tmp_path)]
        ) == 130
        assert "--resume" in capsys.readouterr().err

    def test_negative_retries_is_cli_misuse(self, capsys):
        assert exit_code(
            ["sweep", "psweep", "--quick", "--retries", "-1"]
        ) == 2
        assert "--retries" in capsys.readouterr().err

    def test_zero_cell_timeout_is_cli_misuse(self, capsys):
        assert exit_code(
            ["sweep", "psweep", "--quick", "--cell-timeout", "0"]
        ) == 2
        assert "--cell-timeout" in capsys.readouterr().err

    def test_retries_flag_passes_a_backoff_policy(
        self, monkeypatch, capsys
    ):
        from repro.core.resilience import Backoff
        from repro.experiments import engine

        seen = {}
        real = engine.run_sweep

        def spy(spec, **kwargs):
            seen.update(kwargs)
            return real(spec, **kwargs)

        monkeypatch.setattr(engine, "run_sweep", spy)
        assert main(
            ["sweep", "psweep", "--quick", "--no-cache",
             "--retries", "2", "--cell-timeout", "60"]
        ) == 0
        capsys.readouterr()
        assert isinstance(seen["retry"], Backoff)
        assert seen["retry"].max_attempts == 3
        assert seen["cell_timeout_s"] == 60.0


class TestBenchCheck:
    @staticmethod
    def _payload(speedup):
        return {
            "fleet": {"case": {
                "speedup": speedup, "bit_identical": True,
                "on": {"epochs_per_sec": 1.0},
            }},
            "summary": {
                "n_cases": 1, "min_speedup": speedup,
                "max_speedup": speedup, "geomean_speedup": speedup,
                "all_bit_identical": True,
            },
        }

    def test_check_reads_the_baseline_before_out_overwrites_it(
        self, monkeypatch, tmp_path, capsys
    ):
        import json

        from repro.experiments import hotpath

        baseline = tmp_path / "BENCH.json"
        baseline.write_text(json.dumps(self._payload(10.0)))
        monkeypatch.setattr(
            hotpath, "run_bench", lambda **kw: self._payload(1.0)
        )
        assert main(
            ["bench", "--quick", "--out", str(baseline),
             "--check", str(baseline)]
        ) == 1
        assert "REGRESSION: case: speedup 1.00x" in capsys.readouterr().err

    def test_unreadable_baseline_is_a_usage_error(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.experiments import hotpath

        monkeypatch.setattr(
            hotpath, "run_bench",
            lambda **kw: pytest.fail("benchmarked without a baseline"),
        )
        assert main(
            ["bench", "--quick", "--out", str(tmp_path / "b.json"),
             "--check", str(tmp_path / "missing.json")]
        ) == 2
        assert "cannot read --check baseline" in capsys.readouterr().err

    @pytest.mark.parametrize("baseline", [
        [1, 2],
        {"fleet": [1]},
        {"fleet": {"fleet/fair/facebook/p32u40a260l1.8w30q256s11": {
            "speedup": "x", "on": {"epochs_per_sec": 1.0}}}},
        {"fleet": {"case": {"speedup": 2.0}}},
        {"fleet": {"case": {"speedup": True, "on": {"epochs_per_sec": 1}}}},
        {"fleet": {}, "trace": {"case": {"n_epochs": 1.5,
                                          "fingerprint": "ab"}}},
        {"fleet": {}, "trace": {"case": {"n_epochs": 3,
                                          "fingerprint": None}}},
        {"fleet": {}, "trace": ["case"]},
        {"fleet": {}, "plan": {"case": {"fingerprint": 7}}},
        {"fleet": {}, "plan": {"case": {"wall_s": 0.2}}},
        {"fleet": {}, "plan": ["case"]},
    ], ids=["list", "fleet-list", "speedup-str", "no-epochs-per-sec",
            "speedup-bool", "epochs-float", "fingerprint-null",
            "trace-list", "plan-fingerprint-int", "plan-no-fingerprint",
            "plan-list"])
    def test_malformed_baseline_is_a_usage_error(
        self, monkeypatch, tmp_path, capsys, baseline
    ):
        import json

        from repro.experiments import hotpath

        monkeypatch.setattr(
            hotpath, "run_bench",
            lambda **kw: pytest.fail("benchmarked without a baseline"),
        )
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(baseline))
        assert main(
            ["bench", "--quick", "--out", str(tmp_path / "b.json"),
             "--check", str(path)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot read --check baseline")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("tolerance", ["nan", "1", "1.5", "-0.1", "inf"])
    def test_tolerance_outside_the_unit_interval_is_a_usage_error(
        self, monkeypatch, tmp_path, capsys, tolerance
    ):
        from repro.experiments import hotpath

        monkeypatch.setattr(
            hotpath, "run_bench",
            lambda **kw: pytest.fail("benchmarked with a bad tolerance"),
        )
        assert exit_code(
            ["bench", "--quick", "--out", str(tmp_path / "b.json"),
             "--tolerance", tolerance]
        ) == 2
        err = capsys.readouterr().err
        assert "argument --tolerance: must be in [0, 1)" in err
        assert len(error_lines(err)) == 1

    def test_zero_tolerance_is_accepted(self, monkeypatch, tmp_path, capsys):
        import json

        from repro.experiments import hotpath

        baseline = tmp_path / "BENCH.json"
        baseline.write_text(json.dumps(self._payload(2.0)))
        monkeypatch.setattr(
            hotpath, "run_bench", lambda **kw: self._payload(2.0)
        )
        assert main(
            ["bench", "--quick", "--out", str(tmp_path / "b.json"),
             "--check", str(baseline), "--tolerance", "0"]
        ) == 0
        assert "no regression" in capsys.readouterr().out

    def test_trace_fingerprint_change_is_a_regression(
        self, monkeypatch, tmp_path, capsys
    ):
        import json

        from repro.experiments import hotpath

        def payload(fingerprint):
            out = self._payload(2.0)
            out["platform"] = {"python": "3", "numpy": "2", "machine": "m"}
            out["trace"] = {"trace/case": {
                "wall_s": 1.0, "n_epochs": 7, "fingerprint": fingerprint,
            }}
            return out

        baseline = tmp_path / "BENCH.json"
        baseline.write_text(json.dumps(payload("a" * 64)))
        monkeypatch.setattr(
            hotpath, "run_bench", lambda **kw: payload("b" * 64)
        )
        assert main(
            ["bench", "--quick", "--out", str(tmp_path / "b.json"),
             "--check", str(baseline)]
        ) == 1
        assert "REGRESSION: trace/case: fingerprint" in (
            capsys.readouterr().err
        )


class TestSimulateStagePolicy:
    @pytest.fixture()
    def plan_file(self, tmp_path):
        path = str(tmp_path / "plan.json")
        assert main(
            ["plan", "--nodes", "6", "--scale-factor", "0.2", "--out", path]
        ) == 0
        return path

    def test_replan_completes(self, plan_file, capsys):
        assert main(
            ["simulate", plan_file, "--fail-port", "0", "--fail-at", "0.05",
             "--fail-direction", "ingress", "--stage-policy", "replan"]
        ) == 0
        out = capsys.readouterr().out
        assert "job completed" in out and "replanned" in out

    def test_fail_job_reports_failed_job(self, plan_file, capsys):
        assert main(
            ["simulate", plan_file, "--fail-port", "0", "--fail-at", "0.05",
             "--fail-direction", "ingress", "--stage-policy", "fail-job"]
        ) == 1
        assert "job FAILED" in capsys.readouterr().out

    def test_epoch_budget_breach_exits_3_with_crash_report(
        self, plan_file, tmp_path, capsys
    ):
        import json

        crash_dir = tmp_path / "crashes"
        assert main(
            ["simulate", plan_file, "--fail-port", "1", "--fail-at", "0.01",
             "--recover-at", "0.05", "--stage-policy", "retry-stage",
             "--max-epochs", "1", "--crash-dir", str(crash_dir)]
        ) == 3
        assert "watchdog abort" in capsys.readouterr().err
        reports = list(crash_dir.glob("crash-*.json"))
        assert len(reports) == 1
        doc = json.loads(reports[0].read_text())
        assert doc["error"]["type"] == "BudgetExceeded"
        assert doc["context"]["max_epochs"] == 1

    def test_policy_without_failures_is_a_clean_error(self, plan_file, capsys):
        assert main(
            ["simulate", plan_file, "--stage-policy", "replan"]
        ) == 2
        assert "failure schedule" in capsys.readouterr().err

    def test_policy_and_recovery_exclusive(self, plan_file, capsys):
        assert main(
            ["simulate", plan_file, "--fail-port", "0",
             "--stage-policy", "replan", "--recovery", "retry"]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_failures_need_some_recovery_mode(self, plan_file, capsys):
        assert main(
            ["simulate", plan_file, "--fail-port", "0"]
        ) == 2
        err = capsys.readouterr().err
        assert "--recovery" in err and "--stage-policy" in err

    def test_bad_noise_is_a_clean_error(self, plan_file, capsys):
        assert exit_code(
            ["simulate", plan_file, "--estimate-noise", "-1"]
        ) == 2
        assert "argument --estimate-noise:" in capsys.readouterr().err

    def test_bad_censor_is_a_clean_error(self, plan_file, capsys):
        assert exit_code(
            ["simulate", plan_file, "--censor", "1.5"]
        ) == 2
        assert "argument --censor:" in capsys.readouterr().err

    def test_scheduler_view_noise_runs(self, plan_file, capsys):
        assert main(
            ["simulate", plan_file, "--estimate-noise", "0.8",
             "--censor", "0.2", "--noise-seed", "4"]
        ) == 0
        assert "average CCT" in capsys.readouterr().out


class TestObservabilityCli:
    @pytest.fixture()
    def plan_file(self, tmp_path):
        path = str(tmp_path / "plan.json")
        assert main(
            ["plan", "--nodes", "6", "--scale-factor", "0.2", "--out", path]
        ) == 0
        return path

    @pytest.fixture()
    def trace_file(self, plan_file, tmp_path):
        path = str(tmp_path / "run.jsonl")
        assert main(["simulate", plan_file, "--trace", path]) == 0
        return path

    def test_timeline_flag(self, plan_file, capsys):
        assert main(["simulate", plan_file, "--timeline"]) == 0
        assert "epochs recorded" in capsys.readouterr().out

    def test_timeline_off_hint(self, plan_file, capsys):
        assert main(["simulate", plan_file]) == 0
        assert "pass --timeline" in capsys.readouterr().out

    def test_timeline_limit_reports_drops(self, plan_file, capsys):
        assert main(
            ["simulate", plan_file, "--timeline", "--timeline-limit", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "last 2 epochs recorded" in out
        assert "older epochs dropped" in out

    def test_generous_timeline_limit_is_silent(self, plan_file, capsys):
        assert main(
            ["simulate", plan_file, "--timeline",
             "--timeline-limit", "100000"]
        ) == 0
        out = capsys.readouterr().out
        assert "epochs recorded" in out
        assert "dropped" not in out

    def test_timeline_limit_requires_timeline(self, plan_file, capsys):
        assert main(
            ["simulate", plan_file, "--timeline-limit", "2"]
        ) == 2
        err = capsys.readouterr().err
        assert "--timeline-limit only applies with --timeline" in err

    def test_timeline_limit_must_be_positive(self, plan_file, capsys):
        assert exit_code(
            ["simulate", plan_file, "--timeline", "--timeline-limit", "0"]
        ) == 2
        assert "must be finite and strictly positive" in capsys.readouterr().err

    @staticmethod
    def _drop_leading_epochs(trace_file, tmp_path, drop):
        from repro.obs import read_jsonl
        from repro.obs.exporters import write_jsonl

        header, events = read_jsonl(trace_file)
        kept, seen = [], 0
        for e in events:
            if e["kind"] == "epoch" and seen < drop:
                seen += 1
                continue
            kept.append(e)
        assert seen == drop
        path = str(tmp_path / "truncated.jsonl")
        write_jsonl(path, kept, header)
        return path

    def test_stats_warns_on_truncated_timeline(
        self, trace_file, tmp_path, capsys
    ):
        cut = self._drop_leading_epochs(trace_file, tmp_path, 2)
        assert main(["stats", cut]) == 0
        captured = capsys.readouterr()
        assert "truncated" in captured.err
        assert "retained window" in captured.err

    def test_stats_is_quiet_on_complete_timeline(self, trace_file, capsys):
        assert main(["stats", trace_file]) == 0
        assert "truncated" not in capsys.readouterr().err

    def test_report_marks_truncated_trace(
        self, trace_file, tmp_path, capsys
    ):
        cut = self._drop_leading_epochs(trace_file, tmp_path, 2)
        out = str(tmp_path / "report.md")
        assert main(
            ["report", "--from-trace", cut, "--out", out]
        ) == 0
        text = open(out).read()
        assert "timeline in this trace is truncated" in text

    def test_trace_jsonl_readable(self, trace_file):
        from repro.obs import read_jsonl

        header, events = read_jsonl(trace_file)
        assert header["package"] == "repro"
        assert header["scheduler"] == "sebf"
        kinds = {e["kind"] for e in events}
        assert {"run_start", "coflow_submit", "epoch", "run_end"} <= kinds

    def test_trace_chrome(self, plan_file, tmp_path, capsys):
        import json

        path = str(tmp_path / "run.trace.json")
        assert main(
            ["simulate", plan_file, "--trace", path,
             "--trace-format", "chrome"]
        ) == 0
        assert "(chrome)" in capsys.readouterr().out
        doc = json.loads(open(path).read())
        assert doc["traceEvents"]
        assert doc["metadata"]["package"] == "repro"

    def test_trace_prom(self, plan_file, tmp_path):
        path = str(tmp_path / "metrics.prom")
        assert main(
            ["simulate", plan_file, "--trace", path, "--trace-format", "prom"]
        ) == 0
        text = open(path).read()
        assert "# TYPE epochs_total counter" in text
        assert "cct_seconds_bucket" in text

    def test_trace_with_stage_policy(self, plan_file, tmp_path):
        from repro.obs import read_jsonl

        path = str(tmp_path / "stage.jsonl")
        assert main(
            ["simulate", plan_file, "--fail-port", "0", "--fail-at", "0.05",
             "--fail-direction", "ingress", "--stage-policy", "replan",
             "--trace", path]
        ) == 0
        _, events = read_jsonl(path)
        kinds = {e["kind"] for e in events}
        assert "stage_attempt" in kinds and "planner_phase" in kinds

    def test_stats_command(self, trace_file, capsys):
        assert main(["stats", trace_file]) == 0
        out = capsys.readouterr().out
        assert "CCT (s): p50=" in out
        assert "coflows:" in out
        assert "bottleneck attribution" in out

    def test_stats_json(self, trace_file, capsys):
        import json

        assert main(["stats", trace_file, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["coflows"]["completed"] >= 1
        assert summary["header"]["package"] == "repro"

    def test_stats_missing_file(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_gantt_from_trace(self, trace_file, capsys):
        assert main(["gantt", "--from-trace", trace_file]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out

    def test_gantt_needs_exactly_one_source(self, trace_file, capsys):
        assert main(["gantt"]) == 2
        assert "exactly one input" in capsys.readouterr().err
        assert main(
            ["gantt", "some.json", "--from-trace", trace_file]
        ) == 2

    def test_report_from_trace_only(self, trace_file, tmp_path, capsys):
        out_path = str(tmp_path / "report.md")
        assert main(
            ["report", "--from-trace", trace_file, "--out", out_path]
        ) == 0
        text = open(out_path).read()
        assert "## Trace summary:" in text
        assert "Reproducibility header" in text
        assert "## motivating" not in text  # no experiments ran

    def test_report_bad_trace(self, tmp_path, capsys):
        assert main(
            ["report", "--from-trace", str(tmp_path / "nope.jsonl"),
             "--out", str(tmp_path / "r.md")]
        ) == 2
        assert "cannot read trace" in capsys.readouterr().err


_TWO_FLOWS = (
    '{"coflows": [{"flows": [{"src": 0, "dst": 1, "volume": 5}, '
    '{"src": 1, "dst": 2, "volume": 7}]}]}'
)


class TestInputErrorsExitUsage:
    """Bad workload flags and unreadable files end in one stderr line and
    exit 2, not a traceback."""

    def assert_usage_error(self, argv, capsys, needle):
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert needle in err
        assert "Traceback" not in err
        assert len(error_lines(err)) == 1

    @pytest.mark.parametrize(
        "flags, needle",
        [(["--nodes", "0"], "invalid workload"),
         (["--skew", "2"], "argument --skew:"),
         (["--zipf", "-1"], "argument --zipf:"),
         (["--nodes", "10", "--zipf", "nan"], "argument --zipf:"),
         (["--nodes", "10", "--scale-factor", "nan"],
          "argument --scale-factor:"),
         (["--nodes", "10", "--scale-factor", "inf"],
          "argument --scale-factor:")],
        ids=["nodes", "skew", "zipf", "zipf-nan", "scale-factor-nan",
             "scale-factor-inf"],
    )
    def test_plan_rejects_bad_workload(self, flags, needle, capsys):
        self.assert_usage_error(["plan", *flags], capsys, needle)

    def test_plan_out_in_missing_directory(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x.json")
        self.assert_usage_error(
            ["plan", "--nodes", "4", "--out", out], capsys, "cannot write"
        )

    @pytest.mark.parametrize(
        "content",
        [
            None,
            '{"coflows": [',
            '{"coflows": [{"flows": [{"src": 0, "dst": 1, "volume": -5}]}]}',
            '["not", "a", "coflow", "file"]',
            _TWO_FLOWS.replace('"volume": 7', '"volume": Infinity'),
            _TWO_FLOWS.replace("}]}]}", '}], "arrival_time": Infinity}]}'),
            _TWO_FLOWS.replace("}]}]}", '}], "arrival_time": NaN}]}'),
        ],
        ids=["missing", "garbled", "negative-volume", "wrong-shape",
             "volume-inf", "arrival-inf", "arrival-nan"],
    )
    @pytest.mark.parametrize("command", ["simulate", "gantt"])
    def test_unreadable_coflow_file(self, command, content, tmp_path, capsys):
        path = tmp_path / "coflows.json"
        if content is not None:
            path.write_text(content)
        self.assert_usage_error(
            [command, str(path)], capsys, "cannot read coflow file"
        )

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["trace-gen", "{missing}/x.json"], "cannot write"),
            (["trace-gen", "{tmp}/x.json", "--ports", "1"],
             "invalid trace configuration"),
            (["report", "--experiments", "motivating",
              "--out", "{missing}/r.md"], "cannot write"),
            (["simulate", "{coflows}", "--trace", "{missing}/t.jsonl"],
             "cannot write"),
            (["serve", "--arrivals", "5", "--trace", "{missing}/s.jsonl"],
             "cannot write"),
            (["bench", "--quick", "--out", "{missing}/b.json"],
             "cannot write"),
            (["chaos", "--quick", "--no-cache", "--trace",
              "{missing}/c.jsonl"], "cannot write"),
            (["chaos", "--quick", "--no-cache", "--report",
              "{missing}/c.md"], "cannot write"),
            (["gantt", "{coflows}", "--width", "0"], "argument --width:"),
        ],
        ids=[
            "trace-gen-out", "trace-gen-ports", "report-out",
            "simulate-trace", "serve-trace", "bench-out", "chaos-trace",
            "chaos-report", "gantt-width",
        ],
    )
    def test_bad_output_path_or_value(self, argv, needle, tmp_path, capsys):
        coflows = tmp_path / "coflows.json"
        save_coflows([Coflow([Flow(0, 1, 4.0)])], coflows)
        fill = {
            "tmp": str(tmp_path),
            "missing": str(tmp_path / "missing"),
            "coflows": str(coflows),
        }
        self.assert_usage_error(
            [arg.format(**fill) for arg in argv], capsys, needle
        )
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize(
        "flags, needle",
        [
            (["--chaos-mtbf", "nan"], "argument --chaos-mtbf:"),
            (["--chaos-mtbf", "1", "--chaos-horizon", "nan"],
             "argument --chaos-horizon:"),
            (["--chaos-mtbf", "1", "--chaos-horizon", "inf"],
             "argument --chaos-horizon:"),
            (["--fail-port", "1", "--fail-at", "nan"], "argument --fail-at:"),
            (["--estimate-noise", "nan"], "argument --estimate-noise:"),
        ],
        ids=["chaos-mtbf", "chaos-horizon-nan", "chaos-horizon-inf",
             "fail-at", "estimate-noise"],
    )
    def test_nonfinite_fault_flag(self, flags, needle, tmp_path, capsys):
        # Refused while parsing; a NaN chaos MTBF or horizon once sent
        # chaos_schedule into a loop that never ended.
        coflows = tmp_path / "coflows.json"
        save_coflows([Coflow([Flow(0, 1, 4.0), Flow(1, 2, 4.0)])], coflows)
        self.assert_usage_error(
            ["simulate", str(coflows), "--recovery", "retry", *flags],
            capsys, needle,
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig5", "--scale-factor", "-1"],
            ["run", "fig6", "--nodes", "0"],
            ["sweep", "fig6", "--quick", "--nodes", "0", "--no-cache"],
            ["verify", "--nodes", "0", "--scale-factor", "1"],
        ],
        ids=["run-scale-factor", "run-nodes", "sweep-nodes", "verify-nodes"],
    )
    def test_nonpositive_figure_override(self, argv, capsys):
        # Rejected while parsing, before any experiment runs.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be finite and strictly positive" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "c.json", "--rate", "0"],
            ["simulate", "c.json", "--rate", "-1"],
            ["simulate", "c.json", "--rate", "nan"],
            ["simulate", "c.json", "--rate", "inf"],
            ["gantt", "c.json", "--rate", "nan"],
            ["gantt", "c.json", "--rate", "inf"],
            ["serve", "--arrivals", "5", "--rate", "nan"],
            ["serve", "--arrivals", "5", "--rate", "inf"],
            ["capacity", "--budget", "60", "--rate", "nan"],
        ],
        ids=[
            "simulate-rate-0", "simulate-rate-neg", "simulate-rate-nan",
            "simulate-rate-inf", "gantt-rate-nan", "gantt-rate-inf",
            "serve-rate-nan", "serve-rate-inf", "capacity-rate-nan",
        ],
    )
    def test_nonpositive_rate(self, argv, capsys):
        # Rejected while parsing, before the coflow file is read.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--rate: must be finite and strictly positive" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["run", "motivating", "--scale-factor", "3", "--quick"],
             "only apply to sweep experiments"),
            (["run", "motivating", "--quick"],
             "only apply to sweep experiments"),
            (["run", "summary", "--nodes", "4"],
             "only apply to sweep experiments"),
            (["run", "psweep", "--scale-factor", "1"],
             "only apply to figure sweeps"),
            (["run", "fig5", "--quick", "--nodes", "20"],
             "fig5 sweeps the node count"),
            (["sweep", "fig5", "--quick", "--nodes", "20", "--no-cache"],
             "fig5 sweeps the node count"),
        ],
        ids=["motivating-both", "motivating-quick", "summary-nodes",
             "psweep-scale-factor", "fig5-nodes", "sweep-fig5-nodes"],
    )
    def test_run_refuses_overrides_it_cannot_take(self, argv, needle, capsys):
        self.assert_usage_error(argv, capsys, needle)

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["sweep", "crossover", "--quick", "--no-cache",
              "--cell-timeout", "nan"], "argument --cell-timeout:"),
            (["sweep", "crossover", "--quick", "--no-cache",
              "--cell-timeout", "inf"], "argument --cell-timeout:"),
            (["serve", "--arrivals", "5", "--chaos-mtbf", "5",
              "--min-alive", "0"], "argument --min-alive:"),
            (["serve", "--arrivals", "5", "--chaos-mtbf", "5",
              "--min-alive=-1"], "argument --min-alive:"),
        ],
        ids=["cell-timeout-nan", "cell-timeout-inf", "min-alive-0",
             "min-alive-neg"],
    )
    def test_refused_while_parsing(self, argv, needle, capsys):
        # Each ended in a traceback from the signal timer or the chaos
        # configuration, exit 1.
        self.assert_usage_error(argv, capsys, needle)


class TestBrokenPipe:
    """A reader that closes the pipe early ends the run quietly with 141."""

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered",
                                                           "unbuffered"])
    def test_closed_stdout_exits_141_without_traceback(self, unbuffered):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONUNBUFFERED=unbuffered)
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "list"],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                text=True, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""


class TestExitCodeContract:
    """docs/architecture.md's exit-code table IS repro.cli.EXIT_CODES."""

    def parse_docs_table(self):
        import pathlib
        import re

        text = pathlib.Path("docs/architecture.md").read_text()
        section = text.split("## CLI exit codes", 1)[1]
        rows = {}
        for line in section.splitlines():
            m = re.match(r"\|\s*(\d+)\s*\|\s*(.+?)\s*\|\s*$", line)
            if m:
                rows[int(m.group(1))] = m.group(2)
        return rows

    def test_docs_table_matches_the_dict(self):
        from repro.cli import EXIT_CODES

        assert self.parse_docs_table() == EXIT_CODES

    def test_constant_values(self):
        from repro import cli

        assert cli.EXIT_OK == 0
        assert cli.EXIT_FAILURE == 1
        assert cli.EXIT_USAGE == 2
        assert cli.EXIT_WATCHDOG == 3
        assert cli.EXIT_SLO_BREACH == 4
        assert cli.EXIT_INTERRUPTED == 130
        assert cli.EXIT_BROKEN_PIPE == 141
        assert set(cli.EXIT_CODES) == {0, 1, 2, 3, 4, 130, 141}


class TestServeCli:
    def serve_args(self, *extra):
        return [
            "serve", "--ports", "12", "--arrivals", "40", "--seed", "7",
            "--load", "0.6", "--slo", "120", *extra,
        ]

    def test_parser_accepts_serve_flags(self):
        args = build_parser().parse_args(
            self.serve_args("--policy", "bounded-queue", "--watermark", "9")
        )
        assert args.policy == "bounded-queue" and args.watermark == 9.0

    def test_healthy_serve_exits_zero(self, capsys):
        assert main(self.serve_args("--json")) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["arrivals"] == 40
        assert payload["shed"] == 0
        assert payload["slo_ok"] is True

    def test_bad_policy_params_exit_usage(self, capsys):
        rc = exit_code(self.serve_args("--policy", "bounded-queue",
                                       "--watermark", "-5"))
        assert rc == 2

    _ARRIVAL_FLAGS = [
        ["--qps", "nan"], ["--qps", "inf"],
        ["--size-scale", "inf"], ["--size-scale", "nan"],
        ["--process", "pareto", "--pareto-alpha", "nan"],
        ["--process", "pareto", "--pareto-alpha", "inf"],
        ["--process", "pareto", "--pareto-alpha", "1"],
        ["--size-mix", "zipf", "--zipf-a", "nan"],
        ["--size-mix", "zipf", "--zipf-a", "inf"],
    ]

    @staticmethod
    def assert_flag_error(argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if ": error: " in line]
        assert len(errors) == 1 and f"argument {flag}:" in errors[0]

    @pytest.mark.parametrize("flags", _ARRIVAL_FLAGS + [
        ["--load", "inf"], ["--load", "nan"],
    ], ids=" ".join)
    def test_serve_rejects_non_finite_flags(self, flags, capsys):
        # Each of these ended in a traceback, a deadlock, a hang or a
        # run that silently ignored the value.
        self.assert_flag_error(
            ["serve", "--arrivals", "5", *flags], flags[-2], capsys)

    @pytest.mark.parametrize("policy", ["bounded-queue", "load-shedding"])
    def test_nan_watermark_exit_usage(self, policy, capsys):
        # It used to pass every admission check and so defer nothing.
        assert exit_code(self.serve_args("--policy", policy,
                                         "--watermark", "nan")) == 2
        err = capsys.readouterr().err
        assert "argument --watermark: must be finite and strictly positive" in err
        assert len(error_lines(err)) == 1

    @pytest.mark.parametrize("flags", _ARRIVAL_FLAGS, ids=" ".join)
    def test_capacity_rejects_non_finite_flags(self, flags, capsys):
        self.assert_flag_error(
            ["capacity", "load", "--budget", "60", "--arrivals", "5", *flags],
            flags[-2], capsys)

    def test_capacity_load_rejects_rate(self, capsys):
        rc = main([
            "capacity", "load", "--budget", "60", "--rate", "1e6",
            "--arrivals", "20",
        ])
        assert rc == 2
