"""Tests for DAG-structured job execution (dynamic coflow injection)."""

import numpy as np
import pytest

from repro.analytics.dag import DAGExecutor, JobDAG
from repro.core.framework import CCF
from repro.core.model import ShuffleModel
from repro.join.operators import DistributedAggregation, DistributedJoin
from repro.join.partitioner import HashPartitioner
from repro.network.fabric import Fabric
from repro.network.flow import Coflow, Flow
from repro.network.schedulers import make_scheduler
from repro.network.simulator import CoflowSimulator
from repro.workloads.tpch import TPCHConfig, generate_tpch_relations


def model(volume=8.0, n=4, src=0, dst=None, rate=1.0):
    """A stage with a fixed point-to-point transfer (planner-independent).

    Modeled as an initial flow so the stage's duration is exactly
    ``volume / rate`` whatever the strategy -- ideal for timing tests.
    """
    if dst is None:
        dst = (src + 1) % n
    v0 = np.zeros((n, n))
    v0[src, dst] = volume
    return ShuffleModel(h=np.zeros((n, 0)), v0=v0, rate=rate)


@pytest.fixture(scope="module")
def chain():
    """A sequential job (paper Fig. 3): a join, then an aggregation."""
    cfg = TPCHConfig(n_nodes=4, scale_factor=0.002, seed=2)
    customer, orders = generate_tpch_relations(cfg)
    join = DistributedJoin(customer, orders, partitioner=HashPartitioner(20))
    agg = DistributedAggregation(orders, partitioner=HashPartitioner(20))
    return (
        JobDAG("q")
        .add("join", join)
        .add("aggregate", agg, parents=("join",))
    )


def closed_form(dag, strategy="ccf"):
    """Each stage's bandwidth-optimal CCT, the closed-form stage time."""
    return {
        name: CCF().plan(dag.stage(name).workload, strategy).cct
        for name in dag.stage_names
    }


class TestInjection:
    def test_injected_coflow_runs(self):
        fab = Fabric(n_ports=3, rate=1.0)
        first = Coflow([Flow(0, 1, 4.0)], coflow_id=0)

        def injector(cid, now):
            if cid == 0:
                return [Coflow([Flow(1, 2, 2.0)], arrival_time=now, coflow_id=1)]
            return []

        res = CoflowSimulator(fab, make_scheduler("sebf")).run(
            [first], injector=injector
        )
        assert res.completion_times[0] == pytest.approx(4.0)
        assert res.completion_times[1] == pytest.approx(6.0)
        assert res.total_bytes == pytest.approx(6.0)

    def test_chained_injection(self):
        fab = Fabric(n_ports=2, rate=1.0)
        first = Coflow([Flow(0, 1, 1.0)], coflow_id=0)

        def injector(cid, now):
            if cid < 3:
                return [
                    Coflow([Flow(0, 1, 1.0)], arrival_time=now, coflow_id=cid + 1)
                ]
            return []

        res = CoflowSimulator(fab, make_scheduler("sebf")).run(
            [first], injector=injector
        )
        assert len(res.completion_times) == 4
        assert res.makespan == pytest.approx(4.0)

    def test_duplicate_injected_id_rejected(self):
        fab = Fabric(n_ports=2, rate=1.0)
        first = Coflow([Flow(0, 1, 1.0)], coflow_id=0)

        def injector(cid, now):
            return [Coflow([Flow(0, 1, 1.0)], arrival_time=now, coflow_id=0)]

        with pytest.raises(ValueError, match="fresh"):
            CoflowSimulator(fab, make_scheduler("sebf")).run(
                [first], injector=injector
            )

    def test_past_arrival_rejected(self):
        fab = Fabric(n_ports=2, rate=1.0)
        first = Coflow([Flow(0, 1, 5.0)], coflow_id=0)

        def injector(cid, now):
            return [Coflow([Flow(0, 1, 1.0)], arrival_time=0.0, coflow_id=1)]

        with pytest.raises(ValueError, match="past"):
            CoflowSimulator(fab, make_scheduler("sebf")).run(
                [first], injector=injector
            )


class TestJobDAG:
    def test_parents_must_exist(self):
        dag = JobDAG()
        with pytest.raises(ValueError, match="unknown parent"):
            dag.add("b", model(), parents=("a",))

    def test_duplicate_stage_rejected(self):
        dag = JobDAG().add("a", model())
        with pytest.raises(ValueError, match="already exists"):
            dag.add("a", model())

    def test_roots_and_children(self):
        dag = (
            JobDAG()
            .add("a", model())
            .add("b", model())
            .add("c", model(), parents=("a", "b"))
        )
        assert set(dag.roots()) == {"a", "b"}
        assert dag.children_of("a") == ["c"]


class TestDAGExecutor:
    def make_diamond(self, rate=1.0):
        # a -> (b, c) -> d; different source nodes so b and c can overlap.
        return (
            JobDAG("diamond")
            .add("a", model(8.0, src=0, rate=rate))
            .add("b", model(8.0, src=1, rate=rate), parents=("a",))
            .add("c", model(8.0, src=2, rate=rate), parents=("a",))
            .add("d", model(8.0, src=3, rate=rate), parents=("b", "c"))
        )

    def test_dependencies_respected(self):
        result = DAGExecutor().run(self.make_diamond())
        s = result.stages
        assert s["b"].start_time >= s["a"].completion_time - 1e-9
        assert s["c"].start_time >= s["a"].completion_time - 1e-9
        assert s["d"].start_time >= max(
            s["b"].completion_time, s["c"].completion_time
        ) - 1e-9

    def test_parallel_stages_overlap(self):
        result = DAGExecutor().run(self.make_diamond())
        s = result.stages
        # b and c run concurrently (disjoint ports): same window.
        overlap = min(
            s["b"].completion_time, s["c"].completion_time
        ) - max(s["b"].start_time, s["c"].start_time)
        assert overlap > 0

    def test_makespan_beats_sequential_sum(self):
        result = DAGExecutor().run(self.make_diamond())
        seq = sum(st.duration for st in result.stages.values())
        assert result.makespan < seq

    def test_empty_dag(self):
        result = DAGExecutor().run(JobDAG("empty"))
        assert result.makespan == 0.0

    def test_strategies_produce_same_structure(self):
        for strategy in ("hash", "ccf"):
            result = DAGExecutor().run(self.make_diamond(), strategy=strategy)
            assert set(result.stages) == {"a", "b", "c", "d"}
            assert result.strategy == strategy

    def test_chain_stages_match_closed_form_under_sebf(self, chain):
        result = DAGExecutor(scheduler="sebf").run(chain)
        for name, cct in closed_form(chain).items():
            assert result.stages[name].duration == pytest.approx(cct, rel=1e-6)
        s = result.stages
        assert s["aggregate"].start_time >= s["join"].completion_time - 1e-9

    def test_chain_fair_not_faster_than_closed_form(self, chain):
        result = DAGExecutor(scheduler="fair").run(chain)
        for name, cct in closed_form(chain).items():
            assert result.stages[name].duration >= cct - 1e-9

    def test_chain_ccf_not_slower_than_baselines(self, chain):
        total = {
            s: sum(closed_form(chain, s).values())
            for s in ("hash", "mini", "ccf")
        }
        assert total["ccf"] <= total["hash"] + 1e-9
        assert total["ccf"] <= total["mini"] + 1e-9

    def test_chain_custom_ccf_instance(self, chain):
        result = DAGExecutor(CCF(skew_handling=False)).run(chain)
        assert result.completed and result.strategy == "ccf"
        assert list(result.stages) == ["join", "aggregate"]
