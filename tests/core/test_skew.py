"""Unit tests for partial-duplication skew handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.skew import PartialDuplication, detect_skewed_keys
from tests.oracles import partial_duplication_reference


class TestDetection:
    def test_detects_hot_key_from_dict(self):
        counts = {k: 10 for k in range(100)}
        counts[1] = 100_000
        skewed = detect_skewed_keys(counts, factor=100.0)
        assert skewed.tolist() == [1]

    def test_detects_from_array(self):
        counts = np.full(50, 10)
        counts[7] = 1_000_000
        assert detect_skewed_keys(counts, factor=100.0).tolist() == [7]

    def test_uniform_has_no_skew(self):
        counts = {k: 10 for k in range(100)}
        assert detect_skewed_keys(counts, factor=10.0).size == 0

    def test_empty_counts(self):
        assert detect_skewed_keys({}, factor=10.0).size == 0

    def test_invalid_factor(self):
        with pytest.raises(ValueError, match="factor"):
            detect_skewed_keys({1: 1}, factor=0.0)

    def test_multiple_hot_keys_sorted(self):
        counts = {k: 1 for k in range(1000)}
        counts[42] = 10_000
        counts[7] = 10_000
        assert detect_skewed_keys(counts, factor=100.0).tolist() == [7, 42]


class TestPartialDuplication:
    def setup_method(self):
        self.h_full = np.array(
            [
                [10.0, 100.0],
                [10.0, 50.0],
                [10.0, 0.0],
            ]
        )

    def test_residual_matrix(self):
        local = np.array([[90.0], [45.0], [0.0]])
        res = PartialDuplication().apply(self.h_full, [1], local=local)
        np.testing.assert_allclose(
            res.model.h, [[10.0, 10.0], [10.0, 5.0], [10.0, 0.0]]
        )
        assert res.local_bytes == 135.0
        assert res.model.local_bytes_pre == 135.0
        assert res.broadcast_traffic == 0.0

    def test_broadcast_initial_flows(self):
        # Node 0 holds 6 bytes of the hot small side, in partition 0.
        bcast = np.array([[6.0], [0.0], [0.0]])
        res = PartialDuplication().apply(self.h_full, [0], broadcast=bcast)
        v0 = res.model.v0
        # Node 0 broadcasts 6 bytes to nodes 1 and 2, nothing else.
        np.testing.assert_allclose(v0[0], [0.0, 6.0, 6.0])
        np.testing.assert_allclose(v0[1], 0.0)
        assert res.broadcast_traffic == 12.0
        assert res.model.h[0, 0] == 4.0

    def test_rejects_oversubtraction(self):
        with pytest.raises(ValueError, match="exceed"):
            PartialDuplication().apply(
                self.h_full, [0, 1], local=self.h_full + 1.0
            )

    def test_rejects_negative_matrices(self):
        bad = np.array([[-1.0], [0.0], [0.0]])
        with pytest.raises(ValueError, match="non-negative"):
            PartialDuplication().apply(self.h_full, [0], broadcast=bad)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            PartialDuplication().apply(
                self.h_full, [0, 1], local=np.zeros((2, 2))
            )

    @pytest.mark.parametrize("columns", [[2], [-1], [0, 5]])
    def test_rejects_out_of_range_columns(self, columns):
        with pytest.raises(ValueError, match=r"in \[0, 2\)"):
            PartialDuplication().apply(self.h_full, columns)

    def test_rejects_repeated_columns(self):
        local = np.array([[5.0, 5.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="repeat"):
            PartialDuplication().apply(self.h_full, [1, 1], local=local)

    @pytest.mark.parametrize("columns", [[0.0], [[0], [1]], [True]])
    def test_rejects_columns_that_are_not_indices(self, columns):
        with pytest.raises(ValueError, match="partition indices"):
            PartialDuplication().apply(self.h_full, columns)

    def test_noop_without_skew(self):
        res = PartialDuplication().apply(self.h_full)
        np.testing.assert_allclose(res.model.h, self.h_full)
        assert res.local_bytes == 0.0

    def test_residual_is_a_copy(self):
        before = self.h_full.copy()
        local = np.array([[90.0], [45.0], [0.0]])
        res = PartialDuplication().apply(self.h_full, [1], local=local)
        np.testing.assert_array_equal(self.h_full, before)
        assert not np.shares_memory(res.model.h, self.h_full)

    def test_rate_passthrough(self):
        res = PartialDuplication().apply(self.h_full, rate=1.0)
        assert res.model.rate == 1.0

    def test_skew_handling_reduces_bottleneck_on_hot_partition(self):
        # All the hot partition's bytes sit on node 0; without handling
        # they must move wherever partition 1 is assigned (or pin node 0).
        from repro.core.heuristic import ccf_heuristic

        h = np.array([[5.0, 500.0], [5.0, 400.0], [5.0, 100.0]])
        raw = PartialDuplication().apply(h)
        skew = np.array([[500.0], [400.0], [100.0]])
        handled = PartialDuplication().apply(h, [1], local=skew)
        t_raw = raw.model.evaluate(ccf_heuristic(raw.model)).bottleneck_bytes
        t_handled = handled.model.evaluate(
            ccf_heuristic(handled.model)
        ).bottleneck_bytes
        assert t_handled < t_raw


def _dense(columns, block, p):
    """The ``(n, p)`` matrix holding ``block``'s columns at ``columns``."""
    out = np.zeros((block.shape[0], p))
    out[:, columns] = block
    return out


@st.composite
def _skewed_shuffles(draw):
    """A chunk matrix, distinct hot columns and a split of their bytes.

    Byte counts are whole numbers, as real chunk sizes are, so every sum
    below is exact whatever its order: the dense row sum over ``p``
    columns and the sparse one over ``s`` then agree bit for bit.
    """
    n = draw(st.integers(1, 5))
    p = draw(st.integers(1, 10))
    h = np.array(
        draw(st.lists(st.integers(0, 10**12), min_size=n * p, max_size=n * p)),
        dtype=float,
    ).reshape(n, p)
    columns = draw(st.lists(st.integers(0, p - 1), unique=True, max_size=p))
    s = len(columns)
    fracs = st.lists(st.floats(0.0, 1.0), min_size=n * s, max_size=n * s)
    hot = h[:, columns]
    local = np.floor(hot * np.array(draw(fracs)).reshape(n, s))
    bcast = np.floor((hot - local) * np.array(draw(fracs)).reshape(n, s))
    return h, columns, local, bcast


class TestSparseMatchesDenseReference:
    """``apply`` on columns equals the dense-matrix oracle."""

    @settings(max_examples=300, deadline=None)
    @given(_skewed_shuffles())
    def test_same_model(self, case):
        h, columns, local, bcast = case
        p = h.shape[1]
        got = PartialDuplication().apply(
            h, columns, local=local, broadcast=bcast, rate=3.0, name="x"
        )
        ref = partial_duplication_reference(
            h,
            h_skew_local=_dense(columns, local, p),
            h_broadcast=_dense(columns, bcast, p),
            rate=3.0,
            name="x",
        )
        assert got.model.h.tobytes() == ref.model.h.tobytes()
        assert got.model.v0.tobytes() == ref.model.v0.tobytes()
        assert got.broadcast_traffic == ref.broadcast_traffic
        assert got.local_bytes == pytest.approx(ref.local_bytes, rel=1e-12)
        assert got.model.local_bytes_pre == pytest.approx(
            ref.model.local_bytes_pre, rel=1e-12
        )
        assert (got.model.rate, got.model.name) == (3.0, "x")

    @pytest.mark.parametrize("local, bcast, match", [
        ([[-1.0], [0.0]], None, "non-negative"),
        (None, [[0.0], [-2.0]], "non-negative"),
        ([[8.0], [0.0]], [[8.0], [0.0]], "exceed"),
        ([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], None, "shape"),
    ], ids=["negative-local", "negative-broadcast", "oversubtracted",
            "mis-shaped"])
    def test_same_errors(self, local, bcast, match):
        # Column 1 is hot; a mis-shaped block stays mis-shaped when dense.
        h = np.array([[3.0, 10.0], [4.0, 5.0]])
        local = None if local is None else np.array(local)
        bcast = None if bcast is None else np.array(bcast)

        def dense(m):
            return m if m is None or m.shape != (2, 1) else _dense([1], m, 2)

        with pytest.raises(ValueError, match=match):
            PartialDuplication().apply(h, [1], local=local, broadcast=bcast)
        with pytest.raises(ValueError, match=match):
            partial_duplication_reference(
                h, h_skew_local=dense(local), h_broadcast=dense(bcast)
            )
