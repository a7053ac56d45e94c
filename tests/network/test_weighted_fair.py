"""Tests for weighted max-min fairness and coflow weights."""

import numpy as np
import pytest

from repro.network.fabric import Fabric
from repro.network.flow import Coflow, Flow
from repro.network.schedulers import make_scheduler
from repro.network.schedulers.base import maxmin_fill_fast
from repro.network.simulator import CoflowSimulator


class TestCoflowWeight:
    def test_weight_validated(self):
        with pytest.raises(ValueError, match="weight"):
            Coflow([Flow(0, 1, 1.0)], weight=0.0)

    def test_default_weight_is_one(self):
        assert Coflow([Flow(0, 1, 1.0)]).weight == 1.0


class TestWeightedMaxMin:
    """The kernel takes ``dsts + n_ports`` and one combined residual."""

    def test_two_to_one_split(self):
        srcs, dsts = np.array([0, 0]), np.array([1, 2])
        rates = maxmin_fill_fast(
            srcs, dsts + 3, np.ones(6), weights=np.array([2.0, 1.0])
        )
        np.testing.assert_allclose(rates, [2 / 3, 1 / 3])

    def test_weights_only_matter_under_contention(self):
        srcs, dsts = np.array([0, 1]), np.array([1, 2])  # disjoint egress
        rates = maxmin_fill_fast(
            srcs, dsts + 3, np.ones(6), weights=np.array([5.0, 1.0])
        )
        # Flow 0 is capped by ingress port 1 it shares with... nothing:
        # both flows can run at line rate regardless of weights.
        np.testing.assert_allclose(rates, [1.0, 1.0])

    def test_validation(self):
        srcs, dsts = np.array([0]), np.array([1])
        with pytest.raises(ValueError, match="shape"):
            maxmin_fill_fast(srcs, dsts + 2, np.ones(4), weights=np.ones(3))
        with pytest.raises(ValueError, match="positive"):
            maxmin_fill_fast(srcs, dsts + 2, np.ones(4), weights=np.zeros(1))

    def test_unweighted_unchanged(self):
        rng = np.random.default_rng(0)
        srcs = rng.integers(0, 4, 12)
        dsts = (srcs + 1 + rng.integers(0, 3, 12)) % 4
        plain = maxmin_fill_fast(srcs, dsts + 4, np.ones(8))
        ones = maxmin_fill_fast(
            srcs, dsts + 4, np.ones(8), weights=np.ones(12)
        )
        np.testing.assert_allclose(plain, ones)


class TestWeightedFairScheduler:
    def test_priority_coflow_finishes_first(self):
        fab = Fabric(n_ports=3, rate=1.0)
        vip = Coflow([Flow(0, 1, 6.0)], coflow_id=0, weight=2.0)
        best_effort = Coflow([Flow(0, 2, 6.0)], coflow_id=1, weight=1.0)
        res = CoflowSimulator(fab, make_scheduler("fair")).run(
            [vip, best_effort]
        )
        assert res.ccts[0] < res.ccts[1]
        # VIP at rate 2/3 finishes its 6 bytes at t=9; the best-effort
        # coflow has 3 bytes left (rate 1/3 so far) and takes the full
        # port afterwards: done at t=12.
        assert res.ccts[0] == pytest.approx(9.0)
        assert res.ccts[1] == pytest.approx(12.0)

    def test_weights_can_be_disabled(self):
        fab = Fabric(n_ports=3, rate=1.0)
        vip = Coflow([Flow(0, 1, 6.0)], coflow_id=0, weight=2.0)
        other = Coflow([Flow(0, 2, 6.0)], coflow_id=1)
        sched = make_scheduler("fair", use_weights=False)
        res = CoflowSimulator(fab, sched).run([vip, other])
        assert res.ccts[0] == pytest.approx(res.ccts[1])

    def test_equal_weights_match_plain_fair(self):
        fab = Fabric(n_ports=3, rate=1.0)
        coflows = [
            Coflow([Flow(0, 1, 4.0)], coflow_id=0),
            Coflow([Flow(0, 2, 4.0)], coflow_id=1),
        ]
        a = CoflowSimulator(fab, make_scheduler("fair")).run(coflows)
        b = CoflowSimulator(
            fab, make_scheduler("fair", use_weights=False)
        ).run(coflows)
        assert a.ccts == b.ccts
