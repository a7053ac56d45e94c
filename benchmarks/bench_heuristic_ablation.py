"""Bench: Algorithm 1 design-choice ablation + implementation throughput.

Regenerates the sort/locality ablation table and quantifies the win of
the vectorized O(n*p) implementation over a direct transcription of the
paper's pseudocode -- the engineering that makes CCF usable at the paper's
scale (DESIGN.md §4).
"""

import pytest

from repro.core.heuristic import ccf_heuristic
from repro.experiments.ablation import run_heuristic_ablation
from repro.workloads.analytic import AnalyticJoinWorkload
from tests.oracles import ccf_heuristic_reference


@pytest.fixture(scope="module")
def table(save_table):
    return save_table(run_heuristic_ablation(), "heuristic_ablation")


@pytest.fixture(scope="module")
def medium_model():
    wl = AnalyticJoinWorkload(n_nodes=12, partitions=60, scale_factor=0.05)
    return wl.shuffle_model(skew_handling=True)


def test_bench_heuristic_vectorized(benchmark, table, medium_model):
    dest = benchmark(ccf_heuristic, medium_model)
    assert dest.shape == (60,)


def test_bench_heuristic_reference(benchmark, medium_model):
    dest = benchmark(ccf_heuristic_reference, medium_model)
    assert dest.shape == (60,)


def test_bench_heuristic_paper_scale_throughput(benchmark):
    # n=1000, p=15000: the largest configuration of Fig. 5.
    wl = AnalyticJoinWorkload(n_nodes=1000, scale_factor=6.0)
    model = wl.shuffle_model(skew_handling=True)
    dest = benchmark.pedantic(ccf_heuristic, args=(model,), rounds=1, iterations=1)
    assert dest.shape == (15000,)
