"""Tests for the robustness experiments and keyed group-by."""

import numpy as np
import pytest

from repro.core.framework import CCF
from repro.experiments.engine import run_sweep
from repro.experiments.robustness import recovery_sweep, robustness_sweep
from repro.join.multikey import KeyedGroupBy
from repro.workloads.tpch import TPCHConfig, generate_tpch_keyed


class TestRobustness:
    @pytest.fixture(scope="class")
    def table(self):
        return run_sweep(robustness_sweep(
            n_nodes=8, scale_factor=0.1, n_jobs=3, schedulers=("fair", "sebf")
        )).table

    def test_degradation_inflates_cct(self, table):
        for healthy, degraded in zip(
            table.column("healthy"), table.column("degraded")
        ):
            assert degraded >= healthy - 1e-9

    def test_inflation_column_consistent(self, table):
        for h, d, x in zip(
            table.column("healthy"),
            table.column("degraded"),
            table.column("inflation_x"),
        ):
            assert x == pytest.approx(d / h)

    def test_sebf_not_worse_than_fair_when_degraded(self, table):
        named = {r[0]: dict(zip(table.columns, r)) for r in table.rows}
        assert named["sebf"]["degraded"] <= named["fair"]["degraded"] + 1e-9

    def test_failure_summary_columns_present(self, table):
        assert table.column("port_failures")
        # Chaos schedules at least one failure with the default seed, and
        # every row shares the same schedule, so counts are equal.
        counts = set(table.column("port_failures"))
        assert len(counts) == 1 and counts.pop() >= 1
        assert all(c >= 0 for c in table.column("chaos"))

    def test_seed_reproduces_chaos_column(self):
        kw = dict(n_nodes=8, scale_factor=0.1, n_jobs=2, schedulers=("sebf",))
        a = run_sweep(robustness_sweep(seed=3, **kw)).table
        b = run_sweep(robustness_sweep(seed=3, **kw)).table
        assert a.rows == b.rows


class TestFailureRecovery:
    @pytest.fixture(scope="class")
    def table(self):
        return run_sweep(recovery_sweep(
            n_nodes=8, scale_factor=0.1, n_jobs=2, schedulers=("sebf",)
        )).table

    def named(self, table):
        return {
            (r[0], r[1]): dict(zip(table.columns, r)) for r in table.rows
        }

    def test_all_policies_present(self, table):
        assert {r[1] for r in table.rows} == {"abort", "retry", "replan"}

    def test_abort_fails_coflows_others_complete(self, table):
        rows = self.named(table)
        assert rows[("sebf", "abort")]["failed"] >= 1
        for policy in ("retry", "replan"):
            assert rows[("sebf", policy)]["completed"] == 2
            assert rows[("sebf", policy)]["failed"] == 0

    def test_replan_beats_retry(self, table):
        # The default receiver-side failure is exactly what replanning
        # routes around; retry must wait for the repair instead.
        rows = self.named(table)
        assert (
            rows[("sebf", "replan")]["avg_cct"]
            < rows[("sebf", "retry")]["avg_cct"]
        )
        assert rows[("sebf", "replan")]["reroutes"] >= 1
        assert rows[("sebf", "retry")]["restarts"] >= 1

    def test_bytes_lost_reported(self, table):
        # The failure lands mid-transfer, so some progress is wasted.
        rows = self.named(table)
        assert rows[("sebf", "abort")]["bytes_lost"] > 0

    def test_full_node_loss_direction(self):
        table = run_sweep(recovery_sweep(
            n_nodes=8,
            scale_factor=0.1,
            n_jobs=2,
            schedulers=("sebf",),
            policies=("retry", "replan"),
            fail_direction="both",
        )).table
        rows = {
            (r[0], r[1]): dict(zip(table.columns, r)) for r in table.rows
        }
        # Source data died with the node, so even replan completes only
        # after the repair -- but never later than plain retry.
        assert (
            rows[("sebf", "replan")]["avg_cct"]
            <= rows[("sebf", "retry")]["avg_cct"] + 1e-9
        )


class TestKeyedGroupBy:
    @pytest.fixture(scope="class")
    def schema(self):
        return generate_tpch_keyed(
            TPCHConfig(n_nodes=4, scale_factor=0.002, skew=0.2, seed=5)
        )

    @pytest.mark.parametrize("strategy", ["hash", "mini", "ccf"])
    def test_groups_match_centralized(self, schema, strategy):
        agg = KeyedGroupBy(schema["orders"], by="custkey")
        plan = CCF(skew_handling=False).plan(agg, strategy)
        groups, traffic = agg.execute(plan)
        assert groups == agg.expected_groups()
        assert traffic >= 0

    def test_group_by_orderkey_on_lineitem(self, schema):
        agg = KeyedGroupBy(schema["lineitem"], by="orderkey")
        plan = CCF(skew_handling=False).plan(agg, "ccf")
        groups, _ = agg.execute(plan)
        li = np.concatenate(schema["lineitem"].columns["orderkey"])
        assert sum(groups.values()) == li.size

    def test_missing_column_rejected(self, schema):
        with pytest.raises(ValueError, match="group column"):
            KeyedGroupBy(schema["lineitem"], by="custkey")

    def test_pre_aggregation_shrinks_model(self, schema):
        agg = KeyedGroupBy(schema["orders"], by="custkey")
        model = agg.shuffle_model()
        raw_bytes = schema["orders"].total_bytes
        assert model.h.sum() < raw_bytes  # partials < raw rows (skewed key)
