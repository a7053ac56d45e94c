"""Property-based tests for the third wave of modules.

Covers: weighted max-min conservation, local-search monotonicity, keyed
shuffles, injector-driven simulations, the predictor's bounds, and the
outer-join counting identity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.heuristic import ccf_heuristic
from repro.core.localsearch import refine_assignment
from repro.core.model import ShuffleModel
from repro.core.predictor import predict_ccts
from repro.join.multikey import KeyedRelation, execute_keyed_shuffle
from repro.join.outer import semijoin_reduction
from repro.join.partitioner import HashPartitioner
from repro.join.relation import DistributedRelation
from repro.network.schedulers.base import maxmin_fill_fast
from repro.workloads.analytic import AnalyticJoinWorkload


class TestWeightedMaxMinProperties:
    @given(
        st.integers(2, 6),
        st.integers(1, 15),
        st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_capacities_respected_with_weights(self, n, m, seed):
        rng = np.random.default_rng(seed)
        srcs = rng.integers(0, n, m)
        dsts = (srcs + 1 + rng.integers(0, n - 1, m)) % n
        weights = rng.uniform(0.1, 5.0, m)
        rates = maxmin_fill_fast(
            srcs, dsts + n, np.ones(2 * n), weights=weights
        )
        out = np.bincount(srcs, weights=rates, minlength=n)
        inb = np.bincount(dsts, weights=rates, minlength=n)
        assert (out <= 1 + 1e-6).all() and (inb <= 1 + 1e-6).all()
        # Work conservation: every flow crosses a saturated port.
        for f in range(m):
            assert out[srcs[f]] >= 1 - 1e-6 or inb[dsts[f]] >= 1 - 1e-6

    @given(st.integers(2, 5), st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_weight_ordering_on_shared_port(self, n, seed):
        rng = np.random.default_rng(seed)
        # All flows share egress port 0 with distinct destinations.
        m = n - 1
        srcs = np.zeros(m, dtype=np.int64)
        dsts = np.arange(1, n)
        weights = rng.uniform(0.5, 3.0, m)
        rates = maxmin_fill_fast(
            srcs, dsts + n, np.ones(2 * n), weights=weights
        )
        # Rates proportional to weights on the single bottleneck.
        ratio = rates / weights
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)


class TestLocalSearchProperties:
    @given(
        arrays(
            dtype=np.int64,
            shape=st.tuples(st.integers(2, 4), st.integers(1, 6)),
            elements=st.integers(0, 30),
        ),
        st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_never_hurts_from_any_start(self, h, seed):
        model = ShuffleModel(h=h.astype(float), rate=1.0)
        rng = np.random.default_rng(seed)
        start = rng.integers(0, model.n, model.p)
        res = refine_assignment(model, start)
        assert res.final_t <= res.initial_t + 1e-9
        assert res.final_t == pytest.approx(
            model.evaluate(res.dest).bottleneck_bytes
        )

    @given(
        arrays(
            dtype=np.int64,
            shape=st.tuples(st.integers(2, 4), st.integers(1, 6)),
            elements=st.integers(0, 30),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_never_hurts_from_greedy(self, h):
        model = ShuffleModel(h=h.astype(float), rate=1.0)
        start = ccf_heuristic(model)
        res = refine_assignment(model, start)
        assert res.final_t <= model.evaluate(start).bottleneck_bytes + 1e-9


class TestKeyedShuffleProperties:
    @given(st.integers(2, 4), st.integers(1, 8), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_rows_conserved_and_parallel(self, n, p, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 40))
        keys = rng.integers(0, 25, m)
        rel = KeyedRelation.from_rows(
            {"k": keys, "v": keys * 7 + 1},
            rng.integers(0, n, m),
            n,
            payload_bytes=4.0,
        )
        part = HashPartitioner(p=p)
        dest = rng.integers(0, n, p)
        out, vol = execute_keyed_shuffle(rel, part, dest, on="k")
        assert out.total_tuples == m
        for node in range(n):
            rows = out.node_rows(node)
            np.testing.assert_array_equal(rows["v"], rows["k"] * 7 + 1)
        assert vol.sum() == pytest.approx(m * 4.0)


class TestPredictorProperties:
    @given(
        st.integers(10, 120),
        st.floats(0.0, 1.2),
        st.floats(0.0, 0.5),
    )
    @settings(max_examples=20, deadline=None)
    def test_predictions_positive_and_ordered(self, n, zipf_s, skew):
        wl = AnalyticJoinWorkload(
            n_nodes=n, scale_factor=1.0, zipf_s=zipf_s, skew=skew
        )
        pred = predict_ccts(wl)
        assert pred.hash_cct > 0 and pred.mini_cct > 0
        assert pred.ccf_cct >= 0
        # CCF never predicted slower than either baseline on this
        # workload class.
        assert pred.ccf_cct <= pred.mini_cct + 1e-9
        assert pred.ccf_cct <= pred.hash_cct + 1e-9


class TestSemiJoinProperties:
    @given(st.integers(2, 4), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_reduction_sound_and_complete(self, n, seed):
        rng = np.random.default_rng(seed)
        small = DistributedRelation(
            shards=[rng.integers(0, 15, rng.integers(0, 20)) for _ in range(n)]
        )
        big = DistributedRelation(
            shards=[rng.integers(0, 40, rng.integers(0, 50)) for _ in range(n)]
        )
        red = semijoin_reduction(small, big)
        small_keys = set(small.all_keys().tolist())
        # Sound: every surviving key matches something.
        assert set(red.reduced.all_keys().tolist()) <= small_keys
        # Complete: no matching row was dropped.
        from repro.join.local import join_cardinality

        assert join_cardinality(
            small.all_keys(), red.reduced.all_keys()
        ) == join_cardinality(small.all_keys(), big.all_keys())
