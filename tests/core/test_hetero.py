"""Tests for heterogeneous-port-rate planning and evaluation."""

import numpy as np
import pytest

from repro.core.heuristic import ccf_heuristic
from repro.core.model import ShuffleModel
from repro.network.fabric import Fabric
from repro.network.schedulers import make_scheduler
from repro.network.simulator import CoflowSimulator
from tests.conftest import random_model


class TestCctHetero:
    def test_uniform_rates_match_cct(self, rng):
        m = random_model(rng, 4, 8, rate=2.0)
        dest = rng.integers(0, 4, size=8)
        rates = np.full(4, 2.0)
        assert m.cct_hetero(dest, rates, rates) == pytest.approx(
            m.evaluate(dest).cct
        )

    def test_slow_port_dominates(self):
        m = ShuffleModel(h=np.array([[10.0], [0.0]]), rate=1.0)
        dest = np.array([1])
        # Ingress at node 1 is 4x slower than egress at node 0.
        cct = m.cct_hetero(dest, np.array([1.0, 1.0]), np.array([1.0, 0.25]))
        assert cct == pytest.approx(40.0)

    def test_matches_simulator_with_hetero_fabric(self, rng):
        m = random_model(rng, 4, 8, rate=1.0)
        dest = ccf_heuristic(m)
        egress = np.array([1.0, 0.5, 2.0, 1.0])
        ingress = np.array([2.0, 1.0, 1.0, 0.5])
        expected = m.cct_hetero(dest, egress, ingress)
        cf = m.to_coflow(dest)
        if cf.width == 0:
            pytest.skip("all-local assignment")
        fab = Fabric(n_ports=4, rate=1.0, egress_rates=egress,
                     ingress_rates=ingress)
        res = CoflowSimulator(fab, make_scheduler("sebf")).run([cf])
        assert res.max_cct == pytest.approx(expected)

    def test_validation(self, rng):
        m = random_model(rng, 3, 4)
        dest = np.zeros(4, dtype=np.int64)
        with pytest.raises(ValueError, match="shape"):
            m.cct_hetero(dest, np.ones(2), np.ones(3))
        with pytest.raises(ValueError, match="positive"):
            m.cct_hetero(dest, np.zeros(3), np.ones(3))
        for bad in (np.nan, np.inf):
            rates = np.array([bad, 1.0, 1.0])
            with pytest.raises(ValueError, match="finite and strictly"):
                m.cct_hetero(dest, rates, np.ones(3))
            with pytest.raises(ValueError, match="finite and strictly"):
                m.cct_hetero(dest, np.ones(3), rates)


class TestHeteroHeuristic:
    def test_uniform_rates_identical_assignment(self, rng):
        m = random_model(rng, 5, 12, rate=1.0)
        plain = ccf_heuristic(m)
        scaled = ccf_heuristic(
            m,
            egress_rates=np.full(5, 1.0),
            ingress_rates=np.full(5, 1.0),
        )
        np.testing.assert_array_equal(plain, scaled)

    def test_avoids_slow_receiver(self):
        # Two equally good destinations by bytes; node 0's NIC is slow.
        h = np.zeros((3, 1))
        h[2, 0] = 10.0
        m = ShuffleModel(h=h, rate=1.0)
        ingress = np.array([0.1, 1.0, 1.0])
        dest = ccf_heuristic(
            m, egress_rates=np.ones(3), ingress_rates=ingress,
            locality_tiebreak=False,
        )
        # Keeping it local (node 2) is free; that dominates regardless --
        # force movement by zeroing locality: still avoids node 0.
        assert dest[0] != 0

    def test_hetero_beats_byte_scored_on_skewed_rates(self, rng):
        # Node 0 has a 10x slower NIC: byte-scored Algorithm 1 loads it
        # like any other node; rate-aware scoring steers volume away.
        m = random_model(rng, 6, 30, rate=1.0)
        egress = np.ones(6)
        ingress = np.ones(6)
        ingress[0] = 0.1
        plain = ccf_heuristic(m)
        aware = ccf_heuristic(
            m, egress_rates=egress, ingress_rates=ingress
        )
        t_plain = m.cct_hetero(plain, egress, ingress)
        t_aware = m.cct_hetero(aware, egress, ingress)
        assert t_aware <= t_plain + 1e-9

    def test_rate_validation(self, rng):
        m = random_model(rng, 3, 4)
        with pytest.raises(ValueError, match="shape"):
            ccf_heuristic(m, egress_rates=np.ones(2))
        with pytest.raises(ValueError, match="positive"):
            ccf_heuristic(m, ingress_rates=np.zeros(3))
        for bad in (np.nan, np.inf):
            rates = np.array([bad, 1.0, 1.0])
            with pytest.raises(ValueError, match="finite and strictly"):
                ccf_heuristic(m, egress_rates=rates)
            with pytest.raises(ValueError, match="finite and strictly"):
                ccf_heuristic(m, ingress_rates=rates)

    @pytest.mark.parametrize("h", [np.ones((1, 3)), np.ones((2, 0))],
                             ids=["one-node", "no-partitions"])
    def test_rates_checked_before_the_early_returns(self, h):
        m = ShuffleModel(h=h, rate=1.0)
        n = h.shape[0]
        with pytest.raises(ValueError, match="finite and strictly"):
            ccf_heuristic(m, egress_rates=np.full(n, -1.0))
        with pytest.raises(ValueError, match="finite and strictly"):
            ccf_heuristic(m, ingress_rates=np.full(n, np.nan))
