"""Unit tests for zipfian placement weights."""

import numpy as np
import pytest

from repro.workloads.zipf import place_tuples, zipf_weights


class TestZipfWeights:
    def test_normalized(self):
        for s in (0.0, 0.5, 1.0, 2.0):
            assert zipf_weights(10, s).sum() == pytest.approx(1.0)

    def test_uniform_at_zero(self):
        np.testing.assert_allclose(zipf_weights(4, 0.0), 0.25)

    def test_monotone_decreasing(self):
        w = zipf_weights(20, 0.8)
        assert (np.diff(w) < 0).all()

    def test_classical_zipf_ratios(self):
        w = zipf_weights(3, 1.0)
        assert w[0] / w[1] == pytest.approx(2.0)
        assert w[0] / w[2] == pytest.approx(3.0)

    def test_single_node(self):
        np.testing.assert_allclose(zipf_weights(1, 0.8), [1.0])

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 0.8)
        with pytest.raises(ValueError):
            zipf_weights(5, -0.1)

    def test_nan_exponent_is_rejected(self):
        with pytest.raises(ValueError, match="zipf exponent"):
            zipf_weights(5, float("nan"))


class TestPlaceTuples:
    def test_counts_converge_to_weights(self):
        rng = np.random.default_rng(0)
        w = zipf_weights(5, 0.8)
        nodes = place_tuples(200_000, w, rng)
        freq = np.bincount(nodes, minlength=5) / 200_000
        np.testing.assert_allclose(freq, w, atol=0.01)

    def test_empty(self):
        rng = np.random.default_rng(0)
        assert place_tuples(0, zipf_weights(3, 1.0), rng).size == 0

    def test_negative_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            place_tuples(-1, zipf_weights(3, 1.0), rng)

    def test_deterministic_given_seed(self):
        w = zipf_weights(4, 0.5)
        a = place_tuples(100, w, np.random.default_rng(7))
        b = place_tuples(100, w, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)
