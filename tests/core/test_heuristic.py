"""Unit tests for Algorithm 1 (vectorized and reference implementations)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heuristic import ccf_heuristic
from repro.core.incremental import IncrementalPlanner
from repro.core.model import ShuffleModel
from repro.core.strategies import hash_assignment, mini_assignment
from tests.conftest import random_model
from tests.oracles import ccf_heuristic_reference


def optimal_bottleneck(model: ShuffleModel) -> float:
    """Exhaustive optimum for tiny instances."""
    best = np.inf
    for dest in itertools.product(range(model.n), repeat=model.p):
        t = model.evaluate(np.array(dest, dtype=np.int64)).bottleneck_bytes
        best = min(best, t)
    return best


class TestVectorizedMatchesReference:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("flags", [(True, True), (True, False),
                                       (False, True), (False, False)])
    def test_same_assignment(self, seed, flags):
        rng = np.random.default_rng(seed)
        m = random_model(rng, 4, 8)
        sort_p, loc = flags
        fast = ccf_heuristic(m, sort_partitions=sort_p, locality_tiebreak=loc)
        slow = ccf_heuristic_reference(
            m, sort_partitions=sort_p, locality_tiebreak=loc
        )
        np.testing.assert_array_equal(fast, slow)

    def test_same_assignment_with_initial_flows(self):
        rng = np.random.default_rng(99)
        m = random_model(rng, 3, 6, with_v0=True)
        np.testing.assert_array_equal(
            ccf_heuristic(m), ccf_heuristic_reference(m)
        )

    def test_same_assignment_sparse(self):
        rng = np.random.default_rng(5)
        m = random_model(rng, 5, 10, sparse=0.6)
        np.testing.assert_array_equal(
            ccf_heuristic(m), ccf_heuristic_reference(m)
        )


@st.composite
def tie_heavy_models(draw):
    """Small models with chunks and loads in 0..3: ties everywhere.

    Equal loads, a send-side argmax that is also the recv-side argmax,
    and all-zero columns all turn up often at these sizes.
    """
    n = draw(st.integers(1, 5))
    p = draw(st.integers(0, 9))
    small = st.integers(0, 3)
    h = np.array(draw(st.lists(small, min_size=n * p, max_size=n * p)),
                 dtype=float).reshape(n, p)
    kwargs = {}
    if draw(st.booleans()):
        v0 = np.array(draw(st.lists(small, min_size=n * n, max_size=n * n)),
                      dtype=float).reshape(n, n)
        np.fill_diagonal(v0, 0.0)
        kwargs["v0"] = v0
    if draw(st.booleans()):
        for name in ("extra_send", "extra_recv"):
            kwargs[name] = np.array(
                draw(st.lists(small, min_size=n, max_size=n)), dtype=float)
    return ShuffleModel(h=h, rate=1.0, **kwargs)


def brute_force_seconds(model, egress, ingress, *, sort_partitions,
                        locality_tiebreak):
    """O(n^2) per partition: rebuild both load vectors for every ``d``."""
    h = model.h
    send, recv = model.initial_loads()
    send, recv = send.copy(), recv.copy()
    order = (np.argsort(-h.max(axis=0), kind="stable") if sort_partitions
             else np.arange(model.p))
    dest = np.zeros(model.p, dtype=np.int64)
    for k in order:
        col, s_k = h[:, k], h[:, k].sum()
        t = np.empty(model.n)
        for d in range(model.n):
            s = send + col
            s[d] = send[d]
            r = recv.copy()
            r[d] += s_k - col[d]
            t[d] = max((s / egress).max(), (r / ingress).max())
        if locality_tiebreak:
            ties = [d for d in range(model.n)
                    if t[d] <= t.min() * (1 + 1e-12) + 1e-9]
            d = max(ties, key=lambda j: (col[j], -j))
        else:
            d = int(t.argmin())
        dest[k] = d
        send += col
        send[d] -= col[d]
        recv[d] += s_k - col[d]
    return dest


class TestStepBitIdentity:
    """The top-2 step picks what a per-destination evaluation picks."""

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_models(), st.booleans(), st.booleans())
    def test_matches_reference(self, m, sort_p, loc):
        fast = ccf_heuristic(m, sort_partitions=sort_p, locality_tiebreak=loc)
        slow = ccf_heuristic_reference(
            m, sort_partitions=sort_p, locality_tiebreak=loc
        )
        np.testing.assert_array_equal(fast, slow)

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_models(), st.booleans(), st.booleans(), st.data())
    def test_hetero_rates_match_brute_force(self, m, sort_p, loc, data):
        rates = st.lists(st.integers(1, 4), min_size=m.n, max_size=m.n)
        egress = np.array(data.draw(rates), dtype=float)
        ingress = np.array(data.draw(rates), dtype=float)
        fast = ccf_heuristic(m, sort_partitions=sort_p, locality_tiebreak=loc,
                             egress_rates=egress, ingress_rates=ingress)
        slow = brute_force_seconds(m, egress, ingress, sort_partitions=sort_p,
                                   locality_tiebreak=loc)
        np.testing.assert_array_equal(fast, slow)

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_models(), st.booleans())
    def test_sorted_feed_planner_matches(self, m, loc):
        send0, recv0 = m.initial_loads()
        planner = IncrementalPlanner(m.n, initial_send=send0,
                                     initial_recv=recv0, locality_tiebreak=loc)
        streamed = np.zeros(m.p, dtype=np.int64)
        for k in np.argsort(-m.h.max(axis=0), kind="stable"):
            streamed[k] = planner.assign(m.h[:, k])
        np.testing.assert_array_equal(
            streamed, ccf_heuristic(m, locality_tiebreak=loc))


class TestQuality:
    def test_beats_or_matches_hash_and_mini_on_paper_workload(self):
        from repro.workloads.analytic import AnalyticJoinWorkload

        wl = AnalyticJoinWorkload(n_nodes=30, scale_factor=3.0)
        m = wl.shuffle_model(skew_handling=True)
        t_ccf = m.evaluate(ccf_heuristic(m)).bottleneck_bytes
        t_hash = m.evaluate(hash_assignment(m)).bottleneck_bytes
        t_mini = m.evaluate(mini_assignment(m)).bottleneck_bytes
        assert t_ccf <= t_hash + 1e-6
        assert t_ccf <= t_mini + 1e-6

    def test_near_optimal_on_tiny_instances(self):
        # Greedy is not optimal in general, but must stay within 2x of the
        # exhaustive optimum on small random instances (empirically it is
        # almost always exactly optimal).
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = random_model(rng, 3, 5)
            t_h = m.evaluate(ccf_heuristic(m)).bottleneck_bytes
            t_star = optimal_bottleneck(m)
            assert t_h <= 2 * t_star + 1e-9

    def test_respects_lower_bound(self, rng):
        m = random_model(rng, 6, 20, with_v0=True)
        t = m.evaluate(ccf_heuristic(m)).bottleneck_bytes
        assert t >= m.bottleneck_lower_bound() - 1e-9

    def test_locality_tiebreak_never_hurts_traffic(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            m = random_model(rng, 5, 12, sparse=0.4)
            with_loc = m.evaluate(
                ccf_heuristic(m, locality_tiebreak=True)
            )
            without = m.evaluate(
                ccf_heuristic(m, locality_tiebreak=False)
            )
            # Same traffic or better, without a worse bottleneck.
            assert with_loc.traffic <= without.traffic + 1e-9


class TestEdgeCases:
    def test_zero_partitions(self):
        m = ShuffleModel(h=np.zeros((3, 0)), rate=1.0)
        assert ccf_heuristic(m).shape == (0,)
        assert ccf_heuristic_reference(m).shape == (0,)

    def test_single_node_all_local(self):
        m = ShuffleModel(h=np.ones((1, 5)), rate=1.0)
        dest = ccf_heuristic(m)
        np.testing.assert_array_equal(dest, np.zeros(5, dtype=np.int64))
        assert m.evaluate(dest).traffic == 0.0

    def test_single_partition_goes_to_dominant_holder(self):
        h = np.array([[10.0], [1.0], [1.0]])
        m = ShuffleModel(h=h, rate=1.0)
        dest = ccf_heuristic(m)
        assert dest[0] == 0  # keeping the 10-byte chunk local minimizes T

    def test_all_zero_chunks(self):
        m = ShuffleModel(h=np.zeros((3, 4)), rate=1.0)
        dest = ccf_heuristic(m)
        assert m.evaluate(dest).bottleneck_bytes == 0.0

    def test_deterministic(self, rng):
        m = random_model(rng, 5, 15)
        a = ccf_heuristic(m)
        b = ccf_heuristic(m)
        np.testing.assert_array_equal(a, b)


class TestSorting:
    def test_sorted_order_processes_big_chunks_first(self):
        # A partition with one huge chunk must be pinned to its holder
        # before small partitions congest that node's receive side.
        h = np.array(
            [
                [100.0, 5.0, 5.0, 5.0],
                [0.0, 5.0, 5.0, 5.0],
                [0.0, 5.0, 5.0, 5.0],
            ]
        )
        m = ShuffleModel(h=h, rate=1.0)
        sorted_t = m.evaluate(ccf_heuristic(m)).bottleneck_bytes
        unsorted_t = m.evaluate(
            ccf_heuristic(m, sort_partitions=False)
        ).bottleneck_bytes
        assert sorted_t <= unsorted_t + 1e-9
