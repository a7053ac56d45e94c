"""Residual-load (extra_send/extra_recv) integration across all solvers."""

import numpy as np
import pytest

from repro.core.exact import ccf_exact
from repro.core.heuristic import ccf_heuristic
from repro.core.model import ShuffleModel
from repro.core.relax import ccf_lp_rounding
from tests.oracles import ccf_heuristic_reference


@pytest.fixture
def loaded_model(rng):
    h = rng.integers(0, 12, size=(3, 5)).astype(float)
    return ShuffleModel(
        h=h,
        rate=1.0,
        extra_send=np.array([0.0, 20.0, 0.0]),
        extra_recv=np.array([15.0, 0.0, 0.0]),
    )


class TestValidation:
    def test_shape_checked(self):
        with pytest.raises(ValueError, match="extra_send"):
            ShuffleModel(h=np.ones((2, 2)), extra_send=np.ones(3))

    def test_negativity_checked(self):
        with pytest.raises(ValueError, match="extra_recv"):
            ShuffleModel(h=np.ones((2, 2)), extra_recv=np.array([-1.0, 0.0]))

    def test_defaults_to_zero(self):
        m = ShuffleModel(h=np.ones((2, 2)))
        np.testing.assert_allclose(m.extra_send, 0.0)
        np.testing.assert_allclose(m.extra_recv, 0.0)


class TestSolversSeeLoads:
    def test_evaluate_includes_extras(self, loaded_model):
        dest = np.zeros(5, dtype=np.int64)
        m = loaded_model.evaluate(dest)
        assert m.send_loads[1] >= 20.0
        assert m.recv_loads[0] >= 15.0

    def test_heuristics_agree_with_extras(self, loaded_model):
        np.testing.assert_array_equal(
            ccf_heuristic(loaded_model),
            ccf_heuristic_reference(loaded_model),
        )

    def test_heuristic_steers_away_from_loaded_ports(self):
        # Symmetric data; node 1's egress is busy with 100 bytes of other
        # traffic: the planner must not count on it finishing first.
        h = np.full((3, 3), 5.0)
        busy = ShuffleModel(
            h=h, rate=1.0, extra_recv=np.array([0.0, 100.0, 0.0])
        )
        dest = ccf_heuristic(busy, locality_tiebreak=False)
        assert 1 not in dest.tolist()

    def test_exact_objective_includes_extras(self, loaded_model):
        res = ccf_exact(loaded_model)
        achieved = loaded_model.evaluate(res.dest).bottleneck_bytes
        # T* at least the largest fixed load.
        assert achieved >= 20.0 - 1e-9
        assert res.bottleneck_bytes == pytest.approx(achieved)

    def test_exact_not_above_heuristic_with_extras(self, loaded_model):
        t_exact = loaded_model.evaluate(
            ccf_exact(loaded_model).dest
        ).bottleneck_bytes
        t_heur = loaded_model.evaluate(
            ccf_heuristic(loaded_model)
        ).bottleneck_bytes
        assert t_exact <= t_heur + 1e-6

    def test_lp_bound_respects_extras(self, loaded_model):
        lp = ccf_lp_rounding(loaded_model)
        assert lp.lp_lower_bound >= 20.0 - 1e-6
        t_exact = loaded_model.evaluate(
            ccf_exact(loaded_model).dest
        ).bottleneck_bytes
        assert lp.lp_lower_bound <= t_exact + 1e-6
