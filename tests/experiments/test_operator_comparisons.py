"""Operator-level comparisons beyond the registered experiments.

* Track join against partition-level Mini / CCF and key-refined CCF on a
  heavy-key workload: track join moves the fewest bytes, key-refined
  CCF finishes the shuffle fastest.
* A TPC-H DAG whose two roots (a join and an aggregation) are
  independent: both start at time 0.
"""

import numpy as np
import pytest

from repro.analytics.dag import DAGExecutor, JobDAG
from repro.core.framework import CCF
from repro.core.heuristic import ccf_heuristic
from repro.join.keylevel import refine_model
from repro.join.operators import DistributedAggregation, DistributedJoin
from repro.join.partitioner import HashPartitioner
from repro.join.relation import DistributedRelation
from repro.join.trackjoin import TrackJoin
from repro.workloads.tpch import TPCHConfig, generate_tpch_relations


def heavy_key_relations(n_nodes=6, n_keys=40, seed=2):
    """Two relations whose keys sit mostly on the first few nodes."""
    rng = np.random.default_rng(seed)
    w = np.arange(1, n_nodes + 1, dtype=float) ** -0.9
    w /= w.sum()

    def rel(tuples_per_key):
        keys, nodes = [], []
        for k in range(n_keys):
            keys.append(np.full(tuples_per_key, k))
            nodes.append(rng.choice(n_nodes, size=tuples_per_key, p=w))
        return DistributedRelation.from_placement(
            np.concatenate(keys), np.concatenate(nodes), n_nodes,
            payload_bytes=100.0,
        )

    return rel(30), rel(150)


@pytest.fixture(scope="module")
def trackjoin_comparison():
    """Strategy -> (traffic bytes, bandwidth-optimal CCT)."""
    left, right = heavy_key_relations()
    part = HashPartitioner(p=2 * left.n_nodes)
    tj = TrackJoin(left, right, rate=128e6).schedule()
    out = {"track-join": (tj.traffic, tj.cct)}
    join = DistributedJoin(left, right, partitioner=part, skew_factor=1e9)
    for s in ("mini", "ccf"):
        plan = CCF(skew_handling=False).plan(join, s)
        out[s] = (plan.traffic, plan.cct)
    ref = refine_model([left, right], part, split_fraction=1.0, rate=128e6)
    m = ref.model.evaluate(ccf_heuristic(ref.model))
    out["ccf-refined"] = (m.traffic, m.cct)
    return out


class TestTrackJoinComparison:
    def test_track_join_moves_fewest_bytes(self, trackjoin_comparison):
        traffic = {s: t for s, (t, _) in trackjoin_comparison.items()}
        assert traffic["track-join"] == min(traffic.values())

    def test_refined_ccf_finishes_first(self, trackjoin_comparison):
        cct = {s: c for s, (_, c) in trackjoin_comparison.items()}
        assert cct["ccf-refined"] <= cct["mini"]
        assert cct["ccf-refined"] <= cct["track-join"] + 1e-9


def test_independent_dag_roots_start_together():
    config = TPCHConfig(n_nodes=6, scale_factor=0.01, skew=0.2, seed=4)
    customer, orders = generate_tpch_relations(config)
    part = HashPartitioner(p=15 * config.n_nodes)
    dag = (
        JobDAG("roots")
        .add("join", DistributedJoin(customer, orders, partitioner=part,
                                     skew_factor=50.0))
        .add("agg", DistributedAggregation(orders, partitioner=part,
                                           pre_aggregate=True))
    )
    result = DAGExecutor().run(dag, strategy="ccf")
    assert set(result.stages) == {"join", "agg"}
    assert result.stages["join"].start_time == 0.0
    assert result.stages["agg"].start_time == 0.0
