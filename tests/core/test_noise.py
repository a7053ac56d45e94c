"""Tests for the noisy-estimates wrapper's parameter validation."""

import pytest

from repro.core.noise import NoisyEstimates


class TestValidation:
    @pytest.mark.parametrize("sigma", [-0.1, float("nan")])
    def test_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and non-negative"):
            NoisyEstimates(sigma=sigma)

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, float("nan")])
    def test_rejects_bad_censor_fraction(self, fraction):
        with pytest.raises(ValueError, match="censor fraction"):
            NoisyEstimates(censor_fraction=fraction)

    def test_zero_is_null(self):
        assert NoisyEstimates().is_null
        assert not NoisyEstimates(sigma=0.3).is_null
