"""Unit tests for the ShuffleModel (paper model (1)->(3))."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import model as model_mod
from repro.core.model import PlanMetrics, ShuffleModel, group_by_destination
from tests.conftest import brute_force_metrics, random_model
from tests.oracles import group_by_destination_reference


class TestConstruction:
    def test_basic(self):
        m = ShuffleModel(h=np.ones((3, 6)), rate=1.0)
        assert m.n == 3 and m.p == 6
        np.testing.assert_allclose(m.partition_sizes, 3.0)
        assert m.total_bytes == 18.0

    def test_rejects_negative_chunks(self):
        with pytest.raises(ValueError, match="non-negative"):
            ShuffleModel(h=np.array([[1.0, -1.0]]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="2-D"):
            ShuffleModel(h=np.ones(3))
        with pytest.raises(ValueError, match="v0"):
            ShuffleModel(h=np.ones((2, 2)), v0=np.ones((3, 3)))

    def test_rejects_nonzero_v0_diagonal(self):
        v0 = np.ones((2, 2))
        with pytest.raises(ValueError, match="diagonal"):
            ShuffleModel(h=np.ones((2, 2)), v0=v0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_chunks(self, bad):
        with pytest.raises(ValueError, match="chunk sizes"):
            ShuffleModel(h=np.array([[1.0, bad], [2.0, 3.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_initial_flows(self, bad):
        v0 = np.array([[0.0, bad], [1.0, 0.0]])
        with pytest.raises(ValueError, match="initial flow volumes"):
            ShuffleModel(h=np.ones((2, 2)), v0=v0)

    @pytest.mark.parametrize("attr", ["extra_send", "extra_recv"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_extra_loads(self, attr, bad):
        with pytest.raises(ValueError, match=attr):
            ShuffleModel(h=np.ones((2, 2)), **{attr: np.array([0.0, bad])})

    def test_rejects_nan_rate(self):
        with pytest.raises(ValueError, match="rate"):
            ShuffleModel(h=np.ones((2, 2)), rate=np.nan)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="rate"):
            ShuffleModel(h=np.ones((2, 2)), rate=-1.0)

    def test_rejects_infinite_rate(self):
        # An infinite rate once made every CCT 0 for plans moving bytes.
        with pytest.raises(ValueError, match="rate must be finite"):
            ShuffleModel(h=[[1.0, 2.0], [3.0, 0.0]], rate=np.inf)

    def test_initial_loads(self):
        v0 = np.array([[0.0, 2.0], [3.0, 0.0]])
        m = ShuffleModel(h=np.zeros((2, 1)), v0=v0)
        send, recv = m.initial_loads()
        np.testing.assert_allclose(send, [2.0, 3.0])
        np.testing.assert_allclose(recv, [3.0, 2.0])


class TestAssignmentValidation:
    def setup_method(self):
        self.m = ShuffleModel(h=np.ones((3, 4)), rate=1.0)

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="shape"):
            self.m.validate_assignment(np.zeros(3, dtype=np.int64))

    def test_float_dtype_rejected(self):
        with pytest.raises(ValueError, match="integral"):
            self.m.validate_assignment(np.zeros(4))

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="values"):
            self.m.validate_assignment(np.array([0, 1, 2, 3]))


class TestGroupByDestination:
    def test_matches_loop(self, rng):
        h = rng.integers(0, 9, size=(5, 17)).astype(float)
        dest = rng.integers(0, 5, size=17)
        out = group_by_destination(h, dest)
        ref = np.zeros((5, 5))
        for k in range(17):
            ref[:, dest[k]] += h[:, k]
        np.testing.assert_allclose(out, ref)

    def test_empty_partitions(self):
        out = group_by_destination(np.zeros((3, 0)), np.zeros(0, dtype=np.int64))
        np.testing.assert_allclose(out, np.zeros((3, 3)))

    def test_all_to_one_destination(self):
        h = np.arange(9, dtype=float).reshape(3, 3)
        out = group_by_destination(h, np.array([1, 1, 1]))
        np.testing.assert_allclose(out[:, 1], h.sum(axis=1))
        assert out[:, 0].sum() == 0 and out[:, 2].sum() == 0


@st.composite
def grouped_chunks(draw):
    """A chunk matrix, an assignment and a gather block height in rows.

    Group lengths sit around numpy's pairwise-sum thresholds (8-wide
    unrolled blocks, 128-element leaves), chunk values are not dyadic
    (so a changed summation order shows in the bits), and the block
    height often leaves a last block that is not full.  Column-major
    chunk matrices are drawn too.
    """
    n = draw(st.integers(1, 7))
    lengths = draw(st.lists(
        st.sampled_from([1, 2, 7, 8, 9, 16, 128, 129, 200]),
        min_size=0, max_size=min(n, 4)))
    nodes = draw(st.permutations(range(n)))[: len(lengths)]
    dest = np.repeat(np.array(nodes, dtype=np.int64), lengths)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        dest = rng.permutation(dest)
    h = rng.lognormal(mean=10.0, sigma=4.0, size=(n, dest.size))
    h[rng.random(h.shape) < 0.1] = 0.0
    if draw(st.booleans()):
        h = np.asfortranarray(h)
    rows = draw(st.integers(1, n))
    return h, dest, rows


class TestGroupByDestinationBlocks:
    """The row-blocked gather keeps the bits of one whole-matrix gather."""

    @settings(max_examples=200, deadline=None)
    @given(grouped_chunks())
    @example((np.zeros((3, 0)), np.zeros(0, dtype=np.int64), 2))
    @example((np.arange(1.0, 10.0).reshape(1, 9) / 3,
              np.zeros(9, dtype=np.int64), 1))
    @example((np.arange(1.0, 21.0).reshape(5, 4) / 7,
              np.array([3, 0, 0, 3]), 2))
    @example((np.arange(1.0, 26.0).reshape(5, 5) / 7,
              np.array([4, 2, 0, 1, 3]), 3))
    def test_matches_whole_matrix_gather(self, case):
        h, dest, rows = case
        block = rows * h.itemsize * h.shape[1]
        with mock.patch.object(model_mod, "_GATHER_BLOCK_BYTES", block):
            got = group_by_destination(h, dest)
        want = group_by_destination_reference(h, dest)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, p, blocks", [(25, 375, 1), (250, 3750, 15)])
    def test_default_block_height(self, n, p, blocks):
        rows = model_mod._GATHER_BLOCK_BYTES // (8 * p)
        assert -(-n // rows) == blocks


class TestEvaluate:
    def test_matches_brute_force(self, rng):
        for _ in range(20):
            m = random_model(rng, 5, 9, with_v0=True)
            dest = rng.integers(0, 5, size=9)
            got = m.evaluate(dest)
            traffic, send, recv, t = brute_force_metrics(m.h, dest, m.v0)
            assert got.traffic == pytest.approx(traffic)
            np.testing.assert_allclose(got.send_loads, send)
            np.testing.assert_allclose(got.recv_loads, recv)
            assert got.bottleneck_bytes == pytest.approx(t)

    def test_cct_is_bottleneck_over_rate(self):
        m = ShuffleModel(h=np.array([[0.0, 4.0], [6.0, 0.0]]), rate=2.0)
        metrics = m.evaluate(np.array([0, 1]))
        # Everything moves: node1 sends 6 to node0, node0 sends 4 to node1.
        assert metrics.bottleneck_bytes == 6.0
        assert metrics.cct == 3.0

    def test_local_bytes_includes_preprocessing(self):
        m = ShuffleModel(h=np.array([[5.0], [0.0]]), local_bytes_pre=7.0, rate=1.0)
        metrics = m.evaluate(np.array([0]))
        assert metrics.local_bytes == 12.0
        assert metrics.traffic == 0.0

    def test_summary_renders(self):
        m = ShuffleModel(h=np.ones((2, 2)) * 1e9, rate=1e9)
        s = m.evaluate(np.array([0, 1])).summary()
        assert "traffic" in s and "CCT" in s


class TestCoflowExport:
    def test_to_coflow_volume_matches(self, small_model, rng):
        dest = rng.integers(0, small_model.n, size=small_model.p)
        cf = small_model.to_coflow(dest)
        assert cf.total_volume == pytest.approx(
            small_model.evaluate(dest).traffic
        )

    def test_coflow_bottleneck_matches_cct(self, small_model, rng):
        dest = rng.integers(0, small_model.n, size=small_model.p)
        cf = small_model.to_coflow(dest)
        assert cf.bottleneck(small_model.n, small_model.rate) == pytest.approx(
            small_model.evaluate(dest).cct
        )


class TestBounds:
    def test_traffic_lower_bound_achieved_by_mini(self, rng):
        from repro.core.strategies import mini_assignment

        m = random_model(rng, 4, 10)
        dest = mini_assignment(m)
        assert m.evaluate(dest).traffic == pytest.approx(m.traffic_lower_bound())

    def test_traffic_lower_bound_is_lower(self, rng):
        m = random_model(rng, 4, 10)
        for _ in range(10):
            dest = rng.integers(0, 4, size=10)
            assert m.evaluate(dest).traffic >= m.traffic_lower_bound() - 1e-9

    def test_bottleneck_lower_bound_valid(self, rng):
        m = random_model(rng, 4, 10, with_v0=True)
        lb = m.bottleneck_lower_bound()
        for _ in range(20):
            dest = rng.integers(0, 4, size=10)
            assert m.evaluate(dest).bottleneck_bytes >= lb - 1e-9
