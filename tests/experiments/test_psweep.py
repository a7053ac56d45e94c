"""Tests for the partition-granularity sweep."""

import pytest

from repro.experiments.engine import run_sweep
from repro.experiments.psweep import psweep_sweep


@pytest.fixture(scope="module")
def table():
    return run_sweep(psweep_sweep(
        n_nodes=16, total_gb=4.0, multipliers=(1, 5, 15)
    )).table


class TestPartitionSweep:
    def test_ccf_best_at_every_granularity(self, table):
        for hash_, mini, ccf in zip(
            table.column("hash_cct_s"),
            table.column("mini_cct_s"),
            table.column("ccf_cct_s"),
        ):
            assert ccf <= hash_ + 1e-9
            assert ccf <= mini + 1e-9

    def test_finer_granularity_helps_ccf(self, table):
        ccf = table.column("ccf_cct_s")
        assert ccf[-1] < ccf[0]

    def test_solve_time_grows_with_p(self, table):
        ms = table.column("ccf_solve_ms")
        assert ms[-1] > ms[0]

    def test_rows_match_multipliers(self, table):
        assert table.column("p_per_node") == [1, 5, 15]
