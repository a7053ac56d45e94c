"""Unit tests for the bench regression gate (``check_regression``).

The gate compares per-case ``batch_events`` off/on speedups, not
absolute epochs/sec, so a uniformly slower or faster machine must not
trip it; trace replays it compares by epochs and fingerprint and plans
by fingerprint, never by wall time or memory.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments import hotpath
from repro.experiments.hotpath import (
    PlanSpec,
    TraceSpec,
    check_regression,
    fleet_cases,
    load_baseline,
    plan_cases,
    run_fleet_case,
    run_plan_case,
    run_trace_case,
    trace_cases,
)


def _case(speedup, eps=1000.0, bit_identical=True):
    return {
        "bit_identical": bit_identical,
        "speedup": speedup,
        "on": {"epochs_per_sec": eps},
    }


class TestCheckRegression:
    def test_identical_payload_passes(self):
        payload = {"fleet": {"a": _case(2.0), "b": _case(3.0)}}
        assert check_regression(payload, payload) == []

    def test_uniform_machine_slowdown_passes(self):
        # Same speedups, half the absolute throughput: a slow runner,
        # not a regression.
        base = {"fleet": {"a": _case(2.0, eps=1000.0)}}
        cur = {"fleet": {"a": _case(2.0, eps=500.0)}}
        assert check_regression(cur, base) == []

    def test_speedup_collapse_fails(self):
        base = {"fleet": {"a": _case(2.5)}}
        cur = {"fleet": {"a": _case(1.0)}}
        problems = check_regression(cur, base, tolerance=0.3)
        assert len(problems) == 1
        assert "speedup 1.00x" in problems[0]

    def test_tolerance_boundary(self):
        base = {"fleet": {"a": _case(2.0)}}
        assert check_regression(
            {"fleet": {"a": _case(1.5)}}, base, tolerance=0.3
        ) == []  # 1.5 >= 2.0 * 0.7
        assert check_regression(
            {"fleet": {"a": _case(1.3)}}, base, tolerance=0.3
        )  # 1.3 < 1.4

    def test_bit_identity_break_always_fails(self):
        base = {"fleet": {"a": _case(2.0)}}
        cur = {"fleet": {"a": _case(2.0, bit_identical=False)}}
        problems = check_regression(cur, base)
        assert problems == ["a: batch_events off/on results differ"]

    def test_unknown_case_is_skipped(self):
        # A quick run checked against a full baseline only compares the
        # shared keys; extra current-side cases don't error.
        base = {"fleet": {"a": _case(2.0)}}
        cur = {"fleet": {"a": _case(2.0), "new": _case(0.1)}}
        assert check_regression(cur, base) == []

    def test_no_matched_key_fails(self):
        # A renamed case, or a baseline regenerated without it, leaves
        # nothing to compare: the gate must say so instead of passing.
        base = {"fleet": {"old-key": _case(2.0)}}
        cur = {"fleet": {"new-key": _case(2.0)}}
        problems = check_regression(cur, base)
        assert len(problems) == 1
        assert "nothing was compared" in problems[0]

    def test_baseline_without_fleet_fails(self):
        cur = {"fleet": {"a": _case(2.0)}}
        problems = check_regression(cur, {"cases": {"a": _case(2.0)}})
        assert len(problems) == 1
        assert "nothing was compared" in problems[0]


_PLATFORM = {"python": "3.11.7", "numpy": "2.4.6", "machine": "x86_64"}


def _traced(fingerprint="f" * 64, n_epochs=590, platform=_PLATFORM):
    return {
        "platform": dict(platform),
        "fleet": {"a": _case(2.0)},
        "trace": {"t": {
            "wall_s": 0.3, "n_epochs": n_epochs, "fingerprint": fingerprint,
        }},
    }


class TestTraceCheck:
    """Trace replays are compared bit for bit, on the same platform only."""

    def test_identical_trace_passes_quietly(self):
        said = []
        assert check_regression(_traced(), _traced(), say=said.append) == []
        assert said == []

    def test_fingerprint_change_fails(self):
        problems = check_regression(_traced("0" * 64), _traced())
        assert len(problems) == 1
        assert problems[0].startswith("t: fingerprint 000")

    def test_epoch_count_change_fails(self):
        problems = check_regression(_traced(n_epochs=591), _traced())
        assert problems == ["t: n_epochs 591 != baseline 590"]

    def test_wall_time_is_not_compared(self):
        cur = _traced()
        cur["trace"]["t"]["wall_s"] = 30.0
        assert check_regression(cur, _traced()) == []

    def test_other_platform_is_not_compared(self):
        said = []
        other = dict(_PLATFORM, numpy="1.26.4")
        problems = check_regression(
            _traced("0" * 64), _traced(platform=other), say=said.append
        )
        assert problems == []
        assert len(said) == 1 and said[0].startswith("trace: not compared")

    def test_baseline_without_trace_is_not_compared(self):
        said = []
        base = _traced()
        del base["trace"]
        assert check_regression(_traced(), base, say=said.append) == []
        assert said == ["trace: not compared (the baseline has no trace "
                        "section)"]

    def test_no_shared_trace_key_fails(self):
        base = _traced()
        base["trace"] = {"other": base["trace"]["t"]}
        problems = check_regression(_traced(), base)
        assert len(problems) == 1
        assert "nothing was compared" in problems[0]


def _planned(fingerprint="e" * 64, platform=_PLATFORM):
    return {
        "platform": dict(platform),
        "fleet": {"a": _case(2.0)},
        "plan": {"p": {
            "wall_s": 0.2, "peak_mb": 263.0, "fingerprint": fingerprint,
        }},
    }


class TestPlanCheck:
    """Plans are compared by fingerprint, on the same platform only."""

    def test_identical_plan_passes_quietly(self):
        said = []
        assert check_regression(_planned(), _planned(), say=said.append) == []
        assert said == []

    def test_fingerprint_change_fails(self):
        problems = check_regression(_planned("0" * 64), _planned())
        assert len(problems) == 1
        assert problems[0].startswith("p: fingerprint 000")

    def test_wall_time_and_peak_are_not_compared(self):
        cur = _planned()
        cur["plan"]["p"].update(wall_s=9.0, peak_mb=9000.0)
        assert check_regression(cur, _planned()) == []

    def test_other_platform_is_not_compared(self):
        said = []
        other = dict(_PLATFORM, python="3.12.1")
        problems = check_regression(
            _planned("0" * 64), _planned(platform=other), say=said.append
        )
        assert problems == []
        assert len(said) == 1 and said[0].startswith("plan: not compared")

    def test_baseline_without_plan_is_not_compared(self):
        said = []
        base = _planned()
        del base["plan"]
        assert check_regression(_planned(), base, say=said.append) == []
        assert said == ["plan: not compared (the baseline has no plan "
                        "section)"]

    def test_no_shared_plan_key_fails(self):
        base = _planned()
        base["plan"] = {"other": base["plan"]["p"]}
        problems = check_regression(_planned(), base)
        assert len(problems) == 1
        assert "nothing was compared" in problems[0]


def test_quick_plan_case_is_in_the_full_set():
    full = {s.key for s in plan_cases()}
    assert {s.key for s in plan_cases(quick=True)} <= full
    assert {s.n_nodes for s in plan_cases()} == {250, 1000}


def test_plan_case_is_deterministic():
    spec = PlanSpec(8)
    first, second = run_plan_case(spec), run_plan_case(spec)
    assert first["fingerprint"] == second["fingerprint"]
    assert len(first["fingerprint"]) == 64
    assert first["partitions"] == 120
    assert first["eval_s"] >= 0 and first["wall_s"] >= 0


def test_plan_peak_covers_the_evaluation(monkeypatch):
    # An evaluation that allocates far more than the tiny plan must
    # show in the traced peak.
    from repro.core.model import ShuffleModel

    evaluate = ShuffleModel.evaluate

    def hungry(self, dest):
        ballast = np.ones(8_000_000)  # 64 MB
        del ballast
        return evaluate(self, dest)

    monkeypatch.setattr(ShuffleModel, "evaluate", hungry)
    assert run_plan_case(PlanSpec(8))["peak_mb"] >= 64


def test_baseline_without_eval_s_loads(tmp_path):
    base = _planned()
    assert "eval_s" not in base["plan"]["p"]
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base))
    assert load_baseline(path) == base


def test_quick_cases_are_in_the_full_set():
    full = {s.key for s in trace_cases()}
    assert {s.key for s in trace_cases(quick=True)} <= full
    assert {s.scheduler for s in trace_cases() if s.n_coflows == 200} == {
        "sebf", "wcct5"}


def test_trace_case_is_deterministic():
    spec = TraceSpec("wcct5", n_coflows=6)
    first, second = run_trace_case(spec), run_trace_case(spec)
    assert first["n_epochs"] == second["n_epochs"] > 0
    assert first["fingerprint"] == second["fingerprint"]
    assert len(first["fingerprint"]) == 64


class _FakeFleetRuns:
    """Stands in for ``run_service`` and the clock of :func:`run_fleet_case`.

    Every ``off`` run takes 4 s and every ``on`` run 1 s, except that
    the ``on`` run of each pair in ``slow_pairs`` takes 2 s; the run
    numbered ``differs`` (0-based, off and on counted alike) returns
    other CCTs.
    """

    def __init__(self, slow_pairs=(), differs=None):
        self.slow_pairs, self.differs = set(slow_pairs), differs
        self.now, self.runs = 0.0, 0

    def perf_counter(self):
        return self.now

    def run_service(self, config):
        pair, on = divmod(self.runs, 2)
        self.now += (2.0 if pair in self.slow_pairs else 1.0) if on else 4.0
        cct = 2.0 if self.runs == self.differs else 1.0
        self.runs += 1
        result = SimpleNamespace(ccts={0: cct}, completion_times={0: cct},
                                 n_epochs=100, failed_coflows=[], failures=[])
        report = SimpleNamespace(completed=1, shed=0, deferrals=3)
        return report, result, None


def _fake_fleet_case(monkeypatch, **kwargs):
    fake = _FakeFleetRuns(**kwargs)
    monkeypatch.setattr(hotpath, "run_service", fake.run_service)
    monkeypatch.setattr(hotpath, "time",
                        SimpleNamespace(perf_counter=fake.perf_counter))
    spec = fleet_cases(quick=True)[0]
    return spec.key, run_fleet_case(spec), fake.runs


class TestFleetPairs:
    """The fleet gate reads the median of three alternating off/on pairs."""

    BASE = {"fleet": {fleet_cases(quick=True)[0].key: _case(4.0)}}

    def test_one_slow_pair_passes(self, monkeypatch):
        key, case, runs = _fake_fleet_case(monkeypatch, slow_pairs={1})
        assert runs == 6
        assert case["pair_speedups"] == [4.0, 2.0, 4.0]
        assert case["speedup"] == 4.0
        assert case["on"]["wall_s"] == 1.0 and case["off"]["wall_s"] == 4.0
        assert case["bit_identical"]
        current = {"fleet": {key: case}}
        assert check_regression(current, self.BASE, say=print) == []

    def test_every_pair_slow_fails(self, monkeypatch):
        key, case, _ = _fake_fleet_case(monkeypatch, slow_pairs={0, 1, 2})
        assert case["speedup"] == 2.0
        problems = check_regression({"fleet": {key: case}}, self.BASE,
                                    say=print)
        assert len(problems) == 1 and "speedup 2.00x" in problems[0]

    @pytest.mark.parametrize("run", range(6))
    def test_any_differing_run_breaks_bit_identity(self, monkeypatch, run):
        key, case, _ = _fake_fleet_case(monkeypatch, differs=run)
        assert not case["bit_identical"]
        problems = check_regression({"fleet": {key: case}}, self.BASE,
                                    say=print)
        assert problems == [f"{key}: batch_events off/on results differ"]
