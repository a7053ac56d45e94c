"""Chaos campaign tests: scenario matrix, scoring and the ccf chaos CLI.

Platform faults are kept dormant here unless a test arms them
explicitly (``fault_dir`` + ``jobs >= 2``): the point of most of these
tests is the declarative scenario layer and the scorecard, not the
fault machinery itself (exercised in test_resilient_engine.py).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.chaoscampaign import (
    SCENARIOS,
    CampaignOutcome,
    campaign_sweep,
    run_campaign,
)
from repro.experiments.engine import CellCache, cell_key


class TestScenarioMatrix:
    def test_scenario_names_are_stable(self):
        assert list(SCENARIOS) == [
            "baseline",
            "fabric-chaos",
            "noisy-estimates",
            "worker-crash",
            "cache-corruption",
            "cell-timeout",
            "kitchen-sink",
        ]

    def test_baseline_declares_no_faults(self):
        s = SCENARIOS["baseline"]
        assert s.chaos_mtbf is None
        assert s.noise == 0.0
        assert not (s.kill_worker or s.corrupt_cache or s.inject_timeout)

    def test_kitchen_sink_declares_every_fault(self):
        s = SCENARIOS["kitchen-sink"]
        assert s.chaos_mtbf is not None
        assert s.noise > 0
        assert s.kill_worker and s.corrupt_cache and s.inject_timeout

    def test_every_scenario_has_a_description(self):
        assert all(s.description for s in SCENARIOS.values())


class TestCampaignSweep:
    def test_one_cell_per_scenario(self):
        spec = campaign_sweep(quick=True)
        assert spec.name == "chaos"
        assert len(spec.cells) == len(SCENARIOS)
        assert [c.params["scenario"] for c in spec.cells] == list(SCENARIOS)

    def test_quick_keeps_the_full_scenario_set(self):
        # quick shrinks the workload, never the fault coverage
        quick = campaign_sweep(quick=True)
        full = campaign_sweep(quick=False)
        assert len(quick.cells) == len(full.cells)

    def test_scenario_subset_preserves_request_order(self):
        spec = campaign_sweep(quick=True, scenarios=("kitchen-sink", "baseline"))
        assert [c.params["scenario"] for c in spec.cells] == [
            "kitchen-sink",
            "baseline",
        ]

    def test_unknown_scenario_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown chaos scenarios"):
            campaign_sweep(quick=True, scenarios=("baseline", "nope"))

    def test_simulated_faults_are_cell_params_platform_faults_are_not(self):
        # simulated-world faults change results, so they must be part of
        # the cache identity; platform faults must not be.
        spec = campaign_sweep(quick=True)
        by_name = {c.params["scenario"]: c.params for c in spec.cells}
        assert by_name["fabric-chaos"]["chaos_mtbf"] is not None
        assert by_name["noisy-estimates"]["noise"] > 0
        for params in by_name.values():
            assert "kill_worker" not in params
            assert "corrupt_cache" not in params
            assert "inject_timeout" not in params


class TestRunCampaign:
    def test_dormant_campaign_completes_with_clean_baseline(self):
        out = run_campaign(quick=True, jobs=1)
        assert isinstance(out, CampaignOutcome)
        assert out.completed
        baseline = out.table.rows[0]
        assert baseline[0] == "baseline"
        assert baseline[5] == pytest.approx(1.0)

    def test_scorecard_reports_completion_and_counters(self):
        out = run_campaign(quick=True, jobs=1, scenarios=("baseline",))
        metrics = dict(out.resilience.rows)
        assert metrics["scenarios"] == 1
        assert metrics["completed under faults"] == "yes"
        assert metrics["coflows completed"].count("/") == 1

    def test_completed_is_false_when_coflows_are_lost(self):
        out = run_campaign(quick=True, jobs=1, scenarios=("baseline",))
        out.table.rows[0][1] = 0  # pretend every coflow was lost
        assert not out.completed

    def test_corruption_scenarios_quarantine_their_cache_entry(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        out = run_campaign(
            quick=True,
            jobs=1,
            cache=cache,
            scenarios=("cache-corruption",),
        )
        assert out.completed
        assert out.outcome.quarantined == 1
        assert any(
            (tmp_path / "cache" / "quarantine").iterdir()
        ), "the corrupted entry should have been preserved for forensics"

    def test_campaign_rows_are_cacheable_and_reproducible(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        scenarios = ("baseline", "noisy-estimates")
        first = run_campaign(quick=True, jobs=1, cache=cache, scenarios=scenarios)
        second = run_campaign(quick=True, jobs=1, cache=cache, scenarios=scenarios)
        assert second.outcome.hits == len(scenarios)
        assert second.table.rows == first.table.rows

    def test_cached_entries_carry_integrity_checksums(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        run_campaign(quick=True, jobs=1, cache=cache, scenarios=("baseline",))
        spec = campaign_sweep(quick=True, scenarios=("baseline",))
        doc = json.loads(cache.path(cell_key(spec, spec.cells[0])).read_text())
        assert len(doc["sha256"]) == 64


class TestChaosCLI:
    def test_list_prints_every_scenario(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_quick_dormant_run_exits_zero(self, capsys):
        code = main(
            ["chaos", "--quick", "--no-cache", "--no-faults",
             "--jobs", "1", "--scenario", "baseline"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "resilience scorecard" in captured.out
        assert "completed under faults" in captured.out

    def test_armed_run_with_corruption_and_kill(self, tmp_path, capsys):
        # the CI smoke scenario: platform faults armed, cache corrupted,
        # a worker killed -- and the campaign still exits 0.
        code = main(
            ["chaos", "--quick", "--jobs", "2",
             "--cache-dir", str(tmp_path / "cache"),
             "--scenario", "worker-crash", "--scenario", "cache-corruption",
             "--report", str(tmp_path / "report.md")]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert (tmp_path / "report.md").read_text().startswith("# Chaos campaign")
        assert "report written" in captured.err

    def test_trace_records_platform_events(self, tmp_path, capsys):
        trace = tmp_path / "chaos.jsonl"
        code = main(
            ["chaos", "--quick", "--jobs", "2",
             "--cache-dir", str(tmp_path / "cache"),
             "--scenario", "cell-timeout",
             "--trace", str(trace)]
        )
        capsys.readouterr()
        assert code == 0
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        kinds = {e.get("kind") for e in events}
        assert "platform_event" in kinds

    def test_unknown_scenario_is_cli_misuse(self, capsys):
        assert main(["chaos", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_zero_jobs_is_cli_misuse(self, capsys):
        with pytest.raises(SystemExit) as exc:  # refused while parsing
            main(["chaos", "--jobs", "0"])
        assert exc.value.code == 2
        assert "argument --jobs:" in capsys.readouterr().err

    def test_csv_output(self, capsys):
        code = main(
            ["chaos", "--quick", "--no-cache", "--no-faults",
             "--jobs", "1", "--scenario", "baseline", "--csv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0].startswith("scenario,")
