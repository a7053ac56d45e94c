"""Tests for ``ccf sweep``: the parallel, cache-aware engine CLI."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.engine import CellCache, cell_key
from repro.experiments.registry import SWEEPS, build_sweep


class TestParser:
    def test_requires_known_sweep(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "motivating"])  # not a sweep

    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["sweep", "fig5", "--quick", "--jobs", "4",
             "--cache-dir", "/tmp/x", "--resume", "--markdown"]
        )
        assert args.jobs == 4 and args.quick and args.resume
        assert args.cache_dir == "/tmp/x"


class TestValidation:
    def test_jobs_zero_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "psweep", "--jobs", "0"])
        assert exc.value.code == 2
        assert "argument --jobs:" in capsys.readouterr().err

    def test_no_cache_resume_conflict(self, capsys):
        assert main(["sweep", "psweep", "--no-cache", "--resume"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_resume_requires_existing_cache_dir(self, tmp_path, capsys):
        missing = str(tmp_path / "never-created")
        assert main(
            ["sweep", "psweep", "--resume", "--cache-dir", missing]
        ) == 2
        assert "nothing to resume" in capsys.readouterr().err

    def test_scale_factor_rejected_for_non_figure_sweep(self, capsys):
        assert main(
            ["sweep", "psweep", "--quick", "--no-cache",
             "--scale-factor", "1"]
        ) == 2
        assert "figure sweeps" in capsys.readouterr().err


class TestExecution:
    def test_parallel_cold_then_warm_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(
            ["sweep", "psweep", "--quick", "--jobs", "2",
             "--cache-dir", cache]
        ) == 0
        cold = capsys.readouterr()
        assert "cache hits: 0" in cold.err
        assert "jobs: 2" in cold.err
        assert "p_per_node" in cold.out

        assert main(
            ["sweep", "psweep", "--quick", "--jobs", "2",
             "--cache-dir", cache]
        ) == 0
        warm = capsys.readouterr()
        assert "executed: 0" in warm.err
        assert warm.out == cold.out  # bit-identical table text

    def test_no_cache_executes_every_time(self, capsys):
        assert main(["sweep", "ablation-heuristic", "--quick",
                     "--no-cache"]) == 0
        err = capsys.readouterr().err
        assert "cache hits: 0" in err and "cache=off" in err

    def test_sweep_matches_run_table(self, tmp_path, capsys):
        assert main(["run", "fig7", "--quick"]) == 0
        run_out = capsys.readouterr().out
        assert main(
            ["sweep", "fig7", "--quick", "--jobs", "2",
             "--cache-dir", str(tmp_path / "c")]
        ) == 0
        assert capsys.readouterr().out == run_out

    def test_resume_after_simulated_interrupt(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(
            ["sweep", "ablation-heuristic", "--quick",
             "--cache-dir", str(cache_dir)]
        ) == 0
        full = capsys.readouterr()
        # Simulate an interrupt that lost the last completed cell.
        spec = build_sweep("ablation-heuristic", quick=True)
        cache = CellCache(cache_dir)
        lost = cache.path(cell_key(spec, spec.cells[-1]))
        assert lost.exists()
        lost.unlink()

        assert main(
            ["sweep", "ablation-heuristic", "--quick", "--resume",
             "--cache-dir", str(cache_dir)]
        ) == 0
        resumed = capsys.readouterr()
        n = len(spec.cells)
        assert f"resumed {n - 1}/{n} cells from cache" in resumed.err
        assert "executed: 1" in resumed.err
        assert resumed.out == full.out

    def test_csv_stdout_is_pure(self, capsys):
        assert main(["sweep", "ablation-heuristic", "--quick",
                     "--no-cache", "--csv"]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert header.startswith("sort_partitions,")
        assert "cells:" not in out  # summary stays on stderr


class TestRegistry:
    def test_sweeps_are_registered_experiments(self):
        from repro.experiments.registry import EXPERIMENTS

        assert set(SWEEPS) <= set(EXPERIMENTS)

    def test_every_sweep_builds_a_quick_grid(self):
        for name in SWEEPS:
            spec = build_sweep(name, quick=True)
            assert spec.name == name
            assert spec.cells, name
