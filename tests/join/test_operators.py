"""Integration tests: distributed operators are correct under every strategy."""

import numpy as np
import pytest

from repro.core.framework import CCF
from repro.join.operators import (
    DistributedAggregation,
    DistributedJoin,
    DuplicateElimination,
)
from repro.join.partitioner import HashPartitioner
from repro.join.relation import DistributedRelation
from repro.workloads.tpch import TPCHConfig, generate_tpch_relations
from tests.oracles import partial_duplication_reference


@pytest.fixture(scope="module")
def tpch_join():
    cfg = TPCHConfig(n_nodes=5, scale_factor=0.002, skew=0.25, seed=3)
    customer, orders = generate_tpch_relations(cfg)
    return DistributedJoin(customer, orders, skew_factor=50.0)


class TestDistributedJoin:
    @pytest.mark.parametrize("strategy", ["hash", "mini", "ccf"])
    def test_cardinality_matches_centralized(self, tpch_join, strategy):
        plan = CCF().plan(tpch_join, strategy)
        result = tpch_join.execute(plan)
        assert result.cardinality == tpch_join.expected_cardinality()

    def test_cardinality_correct_without_skew_handling(self, tpch_join):
        plan = CCF(skew_handling=False).plan(tpch_join, "ccf")
        result = tpch_join.execute(plan, skew_handling=False)
        assert result.cardinality == tpch_join.expected_cardinality()

    def test_skew_detected(self, tpch_join):
        assert tpch_join.skewed_keys().tolist() == [1]

    def test_realized_traffic_matches_plan(self, tpch_join):
        # The model's predicted traffic must equal what the shuffle moved.
        for strategy in ("hash", "mini", "ccf"):
            plan = CCF().plan(tpch_join, strategy)
            result = tpch_join.execute(plan)
            assert result.realized_traffic == pytest.approx(plan.traffic)

    def test_realized_volume_matches_model(self, tpch_join):
        plan = CCF().plan(tpch_join, "ccf")
        result = tpch_join.execute(plan)
        predicted = plan.model.volume_matrix(plan.dest)
        off_pred = predicted - np.diag(np.diagonal(predicted))
        off_real = result.realized_volume - np.diag(
            np.diagonal(result.realized_volume)
        )
        np.testing.assert_allclose(off_real, off_pred)

    def test_ccf_plan_not_slower(self, tpch_join):
        cmp = CCF().compare(tpch_join)
        assert cmp.cct("ccf") <= cmp.cct("hash") + 1e-9
        assert cmp.cct("ccf") <= cmp.cct("mini") + 1e-9

    def test_skew_model_equals_the_dense_reference(self):
        # Hot keys 1, 2 and 1 + p: two of them share partition 1, so the
        # sparse pass sees columns [1, 2] and its local/broadcast blocks
        # sum both keys in column 0.
        rng = np.random.default_rng(4)
        n, part = 4, HashPartitioner(p=20)
        cold = rng.integers(3, 400, 800)
        hot = np.repeat([1, 2, 21], [300, 200, 250])
        orders_keys = np.concatenate([cold, hot])
        orders = DistributedRelation.from_placement(
            orders_keys, rng.integers(0, n, orders_keys.size), n,
            payload_bytes=100.0)
        cust_keys = np.arange(0, 400)
        customer = DistributedRelation.from_placement(
            cust_keys, rng.integers(0, n, cust_keys.size), n,
            payload_bytes=60.0)
        join = DistributedJoin(customer, orders, partitioner=part,
                               skew_factor=20.0)
        skewed = join.skewed_keys()
        assert skewed.tolist() == [1, 2, 21]
        got = join.shuffle_model(skew_handling=True)
        ref = partial_duplication_reference(
            join.chunk_matrix(),
            h_skew_local=part.chunk_matrix(orders.only_keys(skewed)),
            h_broadcast=part.chunk_matrix(customer.only_keys(skewed)),
            rate=join.rate,
            name=join.name,
        ).model
        assert got.h.tobytes() == ref.h.tobytes()
        assert got.v0.tobytes() == ref.v0.tobytes()
        pinned = np.isin(orders_keys, skewed).sum() * 100.0
        assert got.local_bytes_pre == ref.local_bytes_pre == pinned
        plan = CCF().plan(join, "ccf")
        assert join.execute(plan).cardinality == join.expected_cardinality()

    def test_node_count_mismatch_rejected(self):
        a = DistributedRelation(shards=[np.array([1])])
        b = DistributedRelation(shards=[np.array([1]), np.array([2])])
        with pytest.raises(ValueError, match="same nodes"):
            DistributedJoin(a, b)

    def test_default_partitioner_is_15n(self):
        rel = DistributedRelation(shards=[np.array([1]), np.array([2])])
        join = DistributedJoin(rel, rel)
        assert join.partitioner.p == 30


class TestDistributedAggregation:
    @pytest.fixture(scope="class")
    def relation(self):
        rng = np.random.default_rng(8)
        keys = rng.integers(0, 30, 400)
        keys[:100] = 7  # hot key
        nodes = rng.integers(0, 4, 400)
        return DistributedRelation.from_placement(keys, nodes, 4)

    @pytest.mark.parametrize("pre_aggregate", [False, True])
    @pytest.mark.parametrize("strategy", ["hash", "ccf"])
    def test_groups_match_centralized(self, relation, pre_aggregate, strategy):
        agg = DistributedAggregation(
            relation, pre_aggregate=pre_aggregate, partitioner=HashPartitioner(12)
        )
        plan = CCF().plan(agg, strategy)
        result = agg.execute(plan)
        assert result.groups == agg.expected_groups()

    def test_pre_aggregation_reduces_traffic(self, relation):
        part = HashPartitioner(12)
        plain = DistributedAggregation(relation, partitioner=part)
        combined = DistributedAggregation(
            relation, pre_aggregate=True, partitioner=part
        )
        ccf = CCF()
        t_plain = plain.execute(ccf.plan(plain, "hash")).realized_traffic
        t_comb = combined.execute(ccf.plan(combined, "hash")).realized_traffic
        assert t_comb < t_plain

    def test_skew_handling_toggles_pre_aggregation_in_model(self, relation):
        agg = DistributedAggregation(relation, partitioner=HashPartitioner(12))
        raw = agg.shuffle_model(skew_handling=False)
        handled = agg.shuffle_model(skew_handling=True)
        assert handled.h.sum() < raw.h.sum()


class TestDuplicateElimination:
    @pytest.fixture(scope="class")
    def relation(self):
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 25, 300)
        nodes = rng.integers(0, 3, 300)
        return DistributedRelation.from_placement(keys, nodes, 3)

    @pytest.mark.parametrize("strategy", ["hash", "mini", "ccf"])
    def test_distinct_count_matches(self, relation, strategy):
        op = DuplicateElimination(relation, partitioner=HashPartitioner(9))
        plan = CCF().plan(op, strategy)
        result = op.execute(plan)
        assert len(result.groups) == op.expected_distinct()

    def test_local_dedup_bounds_traffic(self, relation):
        op = DuplicateElimination(relation, partitioner=HashPartitioner(9))
        plan = CCF().plan(op, "hash")
        result = op.execute(plan)
        # At most (#distinct keys per node summed) tuples cross the network.
        max_tuples = sum(np.unique(s).size for s in relation.shards)
        assert result.realized_traffic <= max_tuples * relation.payload_bytes
