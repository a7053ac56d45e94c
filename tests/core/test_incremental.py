"""Tests: the streaming planner reproduces Algorithm 1 exactly."""

import numpy as np
import pytest

from repro.core.heuristic import ccf_heuristic
from repro.core.incremental import IncrementalPlanner
from repro.core.model import ShuffleModel
from tests.conftest import random_model


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_sorted_feed_matches_batch_heuristic(self, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng, 5, 12)
        batch = ccf_heuristic(m)

        planner = IncrementalPlanner(n_nodes=5)
        order = np.argsort(-m.h.max(axis=0), kind="stable")
        streamed = np.empty(12, dtype=np.int64)
        for k in order:
            streamed[k] = planner.assign(m.h[:, k])
        np.testing.assert_array_equal(streamed, batch)
        assert planner.bottleneck_bytes == pytest.approx(
            m.evaluate(batch).bottleneck_bytes
        )

    def test_unsorted_feed_matches_unsorted_heuristic(self, rng):
        m = random_model(rng, 4, 10)
        batch = ccf_heuristic(m, sort_partitions=False)
        planner = IncrementalPlanner(n_nodes=4)
        streamed = np.array(
            [planner.assign(m.h[:, k]) for k in range(10)], dtype=np.int64
        )
        np.testing.assert_array_equal(streamed, batch)

    def test_initial_loads_match_v0_model(self, rng):
        h = rng.integers(0, 10, size=(3, 6)).astype(float)
        v0 = np.array([[0.0, 5.0, 0.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        m = ShuffleModel(h=h, v0=v0, rate=1.0)
        batch = ccf_heuristic(m, sort_partitions=False)
        send0, recv0 = m.initial_loads()
        planner = IncrementalPlanner(
            n_nodes=3, initial_send=send0, initial_recv=recv0
        )
        streamed = np.array(
            [planner.assign(h[:, k]) for k in range(6)], dtype=np.int64
        )
        np.testing.assert_array_equal(streamed, batch)


class TestAPI:
    def test_peek_does_not_commit(self):
        planner = IncrementalPlanner(n_nodes=3)
        col = np.array([4.0, 1.0, 0.0])
        d, t = planner.peek(col)
        assert planner.partitions_assigned == 0
        assert planner.bottleneck_bytes == 0.0
        assert planner.assign(col) == d
        assert planner.bottleneck_bytes == pytest.approx(t)

    def test_loads_are_copies(self):
        planner = IncrementalPlanner(n_nodes=2)
        send, recv = planner.loads()
        send[0] = 99.0
        assert planner.loads()[0][0] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="n_nodes"):
            IncrementalPlanner(n_nodes=0)
        with pytest.raises(ValueError, match="initial_send"):
            IncrementalPlanner(n_nodes=2, initial_send=np.ones(3))
        planner = IncrementalPlanner(n_nodes=2)
        with pytest.raises(ValueError, match="shape"):
            planner.assign(np.ones(3))
        with pytest.raises(ValueError, match="non-negative"):
            planner.assign(np.array([-1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_chunks_rejected(self, bad):
        # A NaN chunk once left ``bottleneck_bytes`` NaN for good, and an
        # infinite one made ``peek`` report T = nan.
        planner = IncrementalPlanner(n_nodes=3)
        col = np.array([bad, 1.0, 2.0])
        with pytest.raises(ValueError, match="finite and non-negative"):
            planner.peek(col)
        with pytest.raises(ValueError, match="finite and non-negative"):
            planner.assign(col)
        assert planner.partitions_assigned == 0
        assert planner.bottleneck_bytes == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("side", ["initial_send", "initial_recv"])
    def test_non_finite_initial_loads_rejected(self, side, bad):
        with pytest.raises(ValueError, match=f"{side} must be finite"):
            IncrementalPlanner(n_nodes=2, **{side: np.array([bad, 0.0])})

    def test_single_node(self):
        planner = IncrementalPlanner(n_nodes=1)
        assert planner.assign(np.array([5.0])) == 0
        assert planner.bottleneck_bytes == 0.0


class TestAllowedMask:
    def test_forbidden_node_never_chosen(self):
        allowed = np.array([True, False, True])
        planner = IncrementalPlanner(n_nodes=3, allowed=allowed)
        for k in range(20):
            col = np.zeros(3)
            col[k % 3] = 5.0  # locality pull toward every node in turn
            assert planner.assign(col) != 1

    def test_mask_validation(self):
        with pytest.raises(ValueError, match="allowed"):
            IncrementalPlanner(n_nodes=2, allowed=np.array([True]))
        with pytest.raises(ValueError, match="allowed"):
            IncrementalPlanner(n_nodes=2, allowed=np.array([False, False]))

    def test_forbid_and_allow_toggle(self):
        planner = IncrementalPlanner(n_nodes=2)
        planner.forbid(0)
        assert planner.assign(np.array([9.0, 0.0])) == 1
        planner.allow(0)
        # Node 0 holds all 9 bytes locally; locality wins again.
        assert planner.assign(np.array([9.0, 0.0])) == 0
        with pytest.raises(ValueError, match="last allowed"):
            p = IncrementalPlanner(n_nodes=2, allowed=np.array([True, False]))
            p.forbid(0)

    def test_allowed_destinations(self):
        planner = IncrementalPlanner(
            n_nodes=4, allowed=np.array([True, False, True, True])
        )
        mask = planner.allowed_destinations()
        np.testing.assert_array_equal(np.flatnonzero(mask), [0, 2, 3])
        mask[1] = True  # a copy: mutating it must not affect the planner
        assert planner.assign(np.array([0.0, 9.0, 0.0, 0.0])) != 1

    def test_matches_heuristic_on_surviving_subset(self, rng):
        # Masking node d must give the same placement as running the
        # unmasked planner on a model whose columns avoid d entirely.
        m = random_model(rng, 4, 8)
        h = m.h.copy()
        h[3, :] = 0.0  # no data originates at the dead node
        masked = IncrementalPlanner(
            n_nodes=4, allowed=np.array([True, True, True, False])
        )
        picks = [masked.assign(h[:, k]) for k in range(8)]
        assert all(p != 3 for p in picks)
