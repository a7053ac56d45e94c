"""Smoke-size tests of the benchmark itself.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import perf_trace  # noqa: E402
import perf_workloads as pw  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMOKE = [
    pw.JoinPlan(n_nodes=8),
    pw.JoinShuffle(n_nodes=6),
    pw.TraceReplay(n_ports=8, n_coflows=4, n_inputs=2),
    pw.ServeOverload(n_ports=8, users=6, max_arrivals=30, n_inputs=2),
]


def _measure(workload, *, trace: bool = False) -> dict:
    return run.measure(workload, seed=3, seconds=0.3, trace=trace,
                       setup_start=time.perf_counter())


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(pw.WORKLOADS)
    assert sorted(w.name for w in SMOKE) == sorted(pw.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", SMOKE, ids=lambda w: w.name)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result = _measure(workload, trace=trace)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    printed = {k: m["unit"] for k, m in result["printed"].items()}
    assert printed == {"op_median_s": "s", "ops_per_s": "1/s",
                       "failed_frac": "ratio", "kernel_quiet_ms": "ms",
                       **workload.units}
    assert result["printed"]["failed_frac"]["value"] == 0.0
    if trace:
        assert result["metrics"]["coverage_frac"]["value"] > 0.5


def test_a_perturbed_cct_is_counted_as_failed(monkeypatch):
    workload = pw.JoinShuffle(n_nodes=6)
    real_op = workload.op

    def perturbed(inp):
        runs = real_op(inp)
        _, _, result = runs[-1]
        result.ccts = {cid: cct * (1 + 1e-6) for cid, cct in result.ccts.items()}
        return runs

    monkeypatch.setattr(workload, "op", perturbed)
    result = _measure(workload)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert result["metrics"] == {}


def test_results_that_change_between_ops_are_counted_as_failed(monkeypatch):
    workload = pw.TraceReplay(n_ports=8, n_coflows=4, n_inputs=1)
    real_check = workload.check
    calls = iter(range(1_000_000))

    def drifting(inp, raw):
        outcome = real_check(inp, raw)
        outcome.quality["cct_s"] += next(calls)
        return outcome

    monkeypatch.setattr(workload, "check", drifting)
    result = _measure(workload)
    assert result["failed"] == result["attempted"] - 1 >= 1


def test_trace_inputs_are_seeded_relabellings_of_fixed_mixes():
    workload = SMOKE[2]
    a, again, b = (workload.make_inputs(s) for s in (1, 1, 2))

    def shape(inputs):
        return [[(c.arrival_time, sorted(f.volume for f in c.flows))
                 for c in coflows] for coflows, _ in inputs]

    def ports(inputs):
        return [[(f.src, f.dst) for c in coflows for f in c.flows]
                for coflows, _ in inputs]

    assert ports(a) == ports(again)
    assert ports(a) != ports(b)
    assert shape(a) == shape(b)


def test_normalised_op_s_weighs_each_input_once():
    # Input 0 runs at 2 kernel times (median), input 1 at 4: the op takes
    # 3 ms on a machine whose kernel takes 1 ms.
    samples = {0: [(2.0, 1.0), (3.0, 1.5), (20.0, 1.0)], 1: [(2.0, 0.5)]}
    assert run.normalised_op_s(samples) == pytest.approx(3e-3)


def test_normalised_setup_s_scales_to_the_quiet_kernel():
    # The 2nd-percentile kernel time is 2 ms: twice the reference.
    kernel = [0.0015] + [0.002] * 98 + [0.01]
    assert run.normalised_setup_s([3.0, 2.0, 9.0], kernel) == pytest.approx(1.5)


def test_tracer_restores_every_entry_point():
    before = [vars(owner)[attr] for owner, attr, _, _ in perf_trace.ENTRY_POINTS]
    tracer = perf_trace.Tracer()
    with tracer.installed():
        SMOKE[1].op(SMOKE[1].make_inputs(0)[0])
    after = [vars(owner)[attr] for owner, attr, _, _ in perf_trace.ENTRY_POINTS]
    assert after == before
    # sebf allocates on every epoch with active flows, and only there.
    assert tracer.calls["network.schedulers"] == tracer.counts["active_epochs"] > 0
    assert tracer.counts["epochs"] > tracer.counts["active_epochs"]


def test_without_program_sources_it_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "join-plan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
