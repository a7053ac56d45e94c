"""Tests for the analytical-query suite experiment."""

import pytest

from repro.experiments.engine import run_sweep
from repro.experiments.querybench import QUERIES, queries_sweep


@pytest.fixture(scope="module")
def table():
    return run_sweep(queries_sweep(n_nodes=5, scale_factor=0.005)).table


class TestQuerySuite:
    def test_all_queries_present(self, table):
        assert table.column("query") == list(QUERIES)

    def test_rows_positive(self, table):
        for rows in table.column("rows"):
            assert rows > 0

    def test_ccf_not_slower_than_mini_anywhere(self, table):
        for mini, ccf in zip(
            table.column("mini_comm_s"), table.column("ccf_comm_s")
        ):
            assert ccf <= mini + 1e-9

    def test_mini_moves_least_bytes(self, table):
        for mini, hash_, ccf in zip(
            table.column("mini_traffic_mb"),
            table.column("hash_traffic_mb"),
            table.column("ccf_traffic_mb"),
        ):
            assert mini <= hash_ + 1e-9
            assert mini <= ccf + 1e-9

    def test_result_consistency_enforced(self, table):
        # The runner itself raises if strategies disagree; reaching here
        # with rows recorded means the cross-check ran for every query.
        assert len(table.rows) == len(QUERIES)
