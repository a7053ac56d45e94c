"""Unit tests for the CCF framework front-end and plan comparison."""

import numpy as np
import pytest

from repro.core.framework import CCF, DEFAULT_STRATEGIES, PlanComparison
from repro.core.model import ShuffleModel
from repro.core.skew import PartialDuplication
from repro.workloads.analytic import AnalyticJoinWorkload


@pytest.fixture
def workload():
    return AnalyticJoinWorkload(n_nodes=10, scale_factor=0.5)


class TestPlan:
    def test_plan_on_raw_model(self, small_model):
        plan = CCF().plan(small_model, "ccf")
        assert plan.strategy == "ccf"
        assert plan.dest.shape == (small_model.p,)
        assert plan.solve_seconds >= 0

    @pytest.mark.parametrize("strategy", ["hash", "mini", "ccf", "ccf-exact"])
    def test_all_strategies_produce_valid_plans(self, strategy):
        wl = AnalyticJoinWorkload(n_nodes=4, partitions=12, scale_factor=0.01)
        plan = CCF().plan(wl, strategy)
        assert plan.dest.shape == (12,)
        assert ((plan.dest >= 0) & (plan.dest < 4)).all()

    def test_unknown_strategy_rejected(self, small_model):
        with pytest.raises(ValueError, match="unknown strategy"):
            CCF().plan(small_model, "magic")


class TestSkewHandlingSemantics:
    def test_hash_uses_raw_model(self, workload):
        ccf = CCF(skew_handling=True)
        model = ccf.model_for(workload, "hash")
        # Raw model: no initial flows, no pre-pinned local bytes.
        assert model.v0.sum() == 0.0
        assert model.local_bytes_pre == 0.0

    def test_ccf_uses_skew_handled_model(self, workload):
        ccf = CCF(skew_handling=True)
        model = ccf.model_for(workload, "ccf")
        assert model.local_bytes_pre > 0.0  # skewed ORDERS pinned local
        assert model.v0.sum() > 0.0  # broadcast initial flows

    def test_skew_handling_disabled_globally(self, workload):
        ccf = CCF(skew_handling=False)
        model = ccf.model_for(workload, "ccf")
        assert model.local_bytes_pre == 0.0

    def test_model_passthrough(self, small_model):
        assert CCF().model_for(small_model, "ccf") is small_model


class TestCompare:
    def test_default_strategies(self, workload):
        cmp = CCF().compare(workload)
        assert set(cmp.strategies) == set(DEFAULT_STRATEGIES)

    def test_ccf_wins_on_paper_workload(self, workload):
        cmp = CCF().compare(workload)
        assert cmp.cct("ccf") <= cmp.cct("hash") + 1e-9
        assert cmp.cct("ccf") <= cmp.cct("mini") + 1e-9

    def test_mini_moves_least(self, workload):
        cmp = CCF().compare(workload)
        assert cmp.traffic("mini") <= cmp.traffic("hash")
        assert cmp.traffic("mini") <= cmp.traffic("ccf")

    def test_speedup_definition(self, workload):
        cmp = CCF().compare(workload)
        assert cmp.speedup("mini", "ccf") == pytest.approx(
            cmp.cct("mini") / cmp.cct("ccf")
        )

    def test_speedup_infinite_when_fast_is_zero(self):
        model = ShuffleModel(h=np.zeros((2, 2)), rate=1.0)
        cmp = CCF().compare(model, strategies=("hash", "ccf"))
        assert cmp.speedup("hash", "ccf") == float("inf")

    def test_row_has_all_metrics(self, workload):
        row = CCF().compare(workload).row()
        for s in DEFAULT_STRATEGIES:
            assert f"{s}_traffic_gb" in row
            assert f"{s}_cct_s" in row
            assert f"{s}_solve_s" in row

    def test_contains_and_getitem(self, workload):
        cmp = CCF().compare(workload)
        assert "ccf" in cmp
        assert cmp["ccf"].strategy == "ccf"


class TestCompareBuildsEachModelOnce:
    @pytest.fixture
    def skewed(self):
        return AnalyticJoinWorkload(n_nodes=12, scale_factor=0.5, skew=0.3)

    @pytest.fixture
    def apply_calls(self, monkeypatch):
        calls = []
        original = PartialDuplication.apply

        def counted(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PartialDuplication, "apply", counted)
        return calls

    def test_skew_pass_runs_once(self, skewed, apply_calls):
        CCF().compare(skewed, strategies=("hash", "mini", "ccf"))
        assert len(apply_calls) == 1

    def test_mini_and_ccf_share_the_skew_handled_model(self, skewed):
        cmp = CCF().compare(skewed, strategies=("hash", "mini", "ccf"))
        assert cmp["mini"].model is cmp["ccf"].model
        assert cmp["hash"].model is not cmp["ccf"].model
        assert cmp["hash"].model.v0.sum() == 0.0
        assert cmp["hash"].model.local_bytes_pre == 0.0
        assert cmp["ccf"].model.v0.sum() > 0.0

    @pytest.mark.parametrize("skew_handling", [True, False])
    def test_plans_equal_single_plans(self, skewed, skew_handling):
        ccf = CCF(skew_handling=skew_handling)
        cmp = ccf.compare(skewed, strategies=("hash", "mini", "ccf"))
        for s in ("hash", "mini", "ccf"):
            alone = ccf.plan(skewed, s)
            np.testing.assert_array_equal(cmp[s].dest, alone.dest)
            assert cmp.traffic(s) == alone.traffic
            assert cmp.cct(s) == alone.cct


class TestPlanComparisonStandalone:
    def test_empty(self):
        cmp = PlanComparison()
        assert cmp.strategies == []
        assert "x" not in cmp
