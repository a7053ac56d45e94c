"""Unit tests for the non-blocking fabric model."""

import numpy as np
import pytest

from repro.network.fabric import DEFAULT_PORT_RATE, Fabric


class TestConstruction:
    def test_defaults(self):
        fab = Fabric(n_ports=4)
        assert fab.rate == DEFAULT_PORT_RATE
        assert fab.uniform
        np.testing.assert_allclose(fab.egress_rates, DEFAULT_PORT_RATE)

    def test_custom_rates(self):
        fab = Fabric(n_ports=2, rate=1.0, egress_rates=np.array([1.0, 2.0]))
        assert not fab.uniform
        assert fab.egress_rates[1] == 2.0
        assert fab.ingress_rates[0] == 1.0

    def test_zero_ports_rejected(self):
        with pytest.raises(ValueError, match="at least one port"):
            Fabric(n_ports=0)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Fabric(n_ports=1, rate=0.0)

    def test_wrong_shape_rates_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Fabric(n_ports=3, egress_rates=np.ones(2))

    def test_nonpositive_port_rate_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            Fabric(n_ports=2, ingress_rates=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("side", ["egress_rates", "ingress_rates"])
    def test_non_finite_port_rate_rejected(self, side, bad):
        # A NaN port once passed and counted its flows as delivered.
        with pytest.raises(ValueError, match="finite and strictly positive"):
            Fabric(n_ports=2, **{side: np.array([bad, 1.0])})


class TestValidateRates:
    def setup_method(self):
        self.fab = Fabric(n_ports=3, rate=1.0)

    def test_feasible_allocation_passes(self):
        srcs = np.array([0, 1])
        dsts = np.array([1, 2])
        self.fab.validate_rates(srcs, dsts, np.array([0.5, 1.0]))

    def test_egress_violation(self):
        srcs = np.array([0, 0])
        dsts = np.array([1, 2])
        with pytest.raises(ValueError, match="egress.*port 0"):
            self.fab.validate_rates(srcs, dsts, np.array([0.7, 0.7]))

    def test_ingress_violation(self):
        srcs = np.array([0, 2])
        dsts = np.array([1, 1])
        with pytest.raises(ValueError, match="ingress.*port 1"):
            self.fab.validate_rates(srcs, dsts, np.array([0.7, 0.7]))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            self.fab.validate_rates(
                np.array([0]), np.array([1]), np.array([-0.1])
            )

    def test_tolerance_absorbs_rounding(self):
        srcs = np.array([0])
        dsts = np.array([1])
        self.fab.validate_rates(srcs, dsts, np.array([1.0 + 1e-9]))
