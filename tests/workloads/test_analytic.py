"""Unit tests for the closed-form analytic workload."""

import tracemalloc

import numpy as np
import pytest

from repro.workloads.analytic import AnalyticJoinWorkload
from tests.oracles import partial_duplication_reference


class TestSizes:
    def test_paper_totals(self):
        wl = AnalyticJoinWorkload(n_nodes=500)
        assert wl.n_customer_tuples == 90e6
        assert wl.n_order_tuples == 900e6
        assert wl.total_bytes == pytest.approx(990e9)
        assert wl.partitions == 7500

    def test_chunk_matrix_conserves_bytes(self):
        wl = AnalyticJoinWorkload(n_nodes=20, scale_factor=1.0)
        assert wl.chunk_matrix().sum() == pytest.approx(wl.total_bytes)

    def test_validation(self):
        with pytest.raises(ValueError):
            AnalyticJoinWorkload(n_nodes=0)
        with pytest.raises(ValueError):
            AnalyticJoinWorkload(n_nodes=2, skew=1.0)
        with pytest.raises(ValueError):
            AnalyticJoinWorkload(n_nodes=2, scale_factor=0)
        with pytest.raises(ValueError):
            AnalyticJoinWorkload(n_nodes=2, partitions=0)

    @pytest.mark.parametrize("field", ["scale_factor", "payload_bytes"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_sizes_are_rejected(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            AnalyticJoinWorkload(n_nodes=2, **{field: bad})

    def test_nan_zipf_is_rejected(self):
        with pytest.raises(ValueError, match="zipf"):
            AnalyticJoinWorkload(n_nodes=2, zipf_s=float("nan"))


class TestStructure:
    def test_node_shares_follow_zipf_ranking(self):
        wl = AnalyticJoinWorkload(n_nodes=10, scale_factor=1.0, zipf_s=0.8)
        h = wl.chunk_matrix()
        rows = h.sum(axis=1)
        assert (np.diff(rows) < 0).all()

    def test_uniform_at_zipf_zero(self):
        wl = AnalyticJoinWorkload(n_nodes=4, scale_factor=1.0, zipf_s=0.0)
        h = wl.chunk_matrix()
        np.testing.assert_allclose(h.sum(axis=1), wl.total_bytes / 4)

    def test_skewed_partition_is_heaviest(self):
        wl = AnalyticJoinWorkload(n_nodes=8, scale_factor=1.0, skew=0.3)
        h = wl.chunk_matrix()
        sizes = h.sum(axis=0)
        assert sizes.argmax() == wl.skewed_partition
        extra = sizes[wl.skewed_partition] - np.median(sizes)
        assert extra == pytest.approx(0.3 * wl.order_bytes, rel=1e-6)

    def test_no_skew_means_uniform_partitions(self):
        wl = AnalyticJoinWorkload(n_nodes=8, scale_factor=1.0, skew=0.0)
        sizes = wl.chunk_matrix().sum(axis=0)
        np.testing.assert_allclose(sizes, sizes[0])


class TestSkewSplit:
    """Partial duplication removes the hot partition's skewed ORDERS bytes
    (kept local) and its CUSTOMER rows (broadcast), split by the zipf
    weights, from that partition's column only."""

    def test_split_is_consistent(self):
        wl = AnalyticJoinWorkload(n_nodes=6, scale_factor=1.0, skew=0.25)
        full = wl.chunk_matrix()
        m = wl.shuffle_model(skew_handling=True)
        k = wl.skewed_partition
        hot_customer_bytes = wl.customer_bytes / wl.n_customer_tuples
        removed = full[:, k] - m.h[:, k]
        assert (m.h[:, k] >= 0).all()
        np.testing.assert_allclose(
            removed,
            wl.node_weights * (0.25 * wl.order_bytes + hot_customer_bytes),
        )
        assert m.local_bytes_pre == pytest.approx(0.25 * wl.order_bytes)
        np.testing.assert_allclose(
            m.v0.sum(axis=1), wl.node_weights * hot_customer_bytes * 5
        )
        others = np.arange(full.shape[1]) != k
        np.testing.assert_array_equal(m.h[:, others], full[:, others])

    def test_zero_skew_has_empty_split(self):
        wl = AnalyticJoinWorkload(n_nodes=6, scale_factor=1.0, skew=0.0)
        m = wl.shuffle_model(skew_handling=True)
        assert m.local_bytes_pre == 0.0
        assert m.v0.sum() == 0.0
        np.testing.assert_array_equal(m.h, wl.chunk_matrix())

    @pytest.mark.parametrize("n_nodes, zipf_s, skew", [
        (6, 0.8, 0.2), (25, 0.8, 0.2), (40, 1.2, 0.35), (3, 0.0, 0.5),
    ])
    def test_model_equals_the_dense_reference(self, n_nodes, zipf_s, skew):
        # The dense skew matrices the workload used to build: one
        # non-zero column each, at the hot partition.
        wl = AnalyticJoinWorkload(n_nodes=n_nodes, zipf_s=zipf_s, skew=skew)
        full = wl.chunk_matrix()
        local, bcast = np.zeros_like(full), np.zeros_like(full)
        k = wl.skewed_partition
        local[:, k] = wl.node_weights * (skew * wl.order_bytes)
        bcast[:, k] = wl.node_weights * (wl.customer_bytes / wl.n_customer_tuples)
        ref = partial_duplication_reference(
            full, h_skew_local=local, h_broadcast=bcast, rate=wl.rate,
            name=wl.name,
        ).model
        got = wl.shuffle_model(skew_handling=True)
        assert got.h.tobytes() == ref.h.tobytes()
        assert got.v0.tobytes() == ref.v0.tobytes()
        assert got.local_bytes_pre == pytest.approx(ref.local_bytes_pre, rel=1e-12)

    def test_skew_model_peak_memory_is_about_two_chunk_matrices(self):
        # The full chunk matrix and the residual copy are the only
        # (n, p) float arrays the skew-handled build needs; a dense skew
        # or broadcast matrix would add one each.
        wl = AnalyticJoinWorkload(n_nodes=400)
        one_matrix = wl.n_nodes * wl.partitions * 8
        tracemalloc.start()
        try:
            wl.shuffle_model(skew_handling=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * one_matrix, peak / one_matrix


class TestShuffleModel:
    def test_raw_model_keeps_everything(self):
        wl = AnalyticJoinWorkload(n_nodes=6, scale_factor=1.0, skew=0.2)
        m = wl.shuffle_model(skew_handling=False)
        assert m.h.sum() == pytest.approx(wl.total_bytes)
        assert m.v0.sum() == 0.0

    def test_skew_handled_model_reduces_shuffle_mass(self):
        wl = AnalyticJoinWorkload(n_nodes=6, scale_factor=1.0, skew=0.2)
        m = wl.shuffle_model(skew_handling=True)
        assert m.h.sum() < wl.total_bytes
        assert m.local_bytes_pre == pytest.approx(0.2 * wl.order_bytes)
        assert m.v0.sum() > 0.0

    def test_skew_handling_noop_without_skew(self):
        wl = AnalyticJoinWorkload(n_nodes=6, scale_factor=1.0, skew=0.0)
        m = wl.shuffle_model(skew_handling=True)
        assert m.h.sum() == pytest.approx(wl.total_bytes)

    def test_rate_propagates(self):
        wl = AnalyticJoinWorkload(n_nodes=4, scale_factor=0.1, rate=1e9)
        assert wl.shuffle_model(skew_handling=True).rate == 1e9
        assert wl.shuffle_model(skew_handling=False).rate == 1e9
