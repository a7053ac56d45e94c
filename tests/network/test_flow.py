"""Unit tests for the Flow/Coflow abstraction."""

import numpy as np
import pytest

from repro.network.flow import Coflow, Flow, coflow_from_matrix


class TestFlow:
    def test_valid_flow(self):
        f = Flow(src=0, dst=1, volume=10.0)
        assert (f.src, f.dst, f.volume) == (0, 1, 10.0)

    def test_local_flow_rejected(self):
        with pytest.raises(ValueError, match="local movement"):
            Flow(src=2, dst=2, volume=1.0)

    def test_zero_volume_rejected(self):
        with pytest.raises(ValueError, match="volume"):
            Flow(src=0, dst=1, volume=0.0)

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError, match="volume"):
            Flow(src=0, dst=1, volume=-3.0)

    @pytest.mark.parametrize("volume", [np.inf, np.nan])
    def test_non_finite_volume_rejected(self, volume):
        with pytest.raises(ValueError, match="volume must be finite"):
            Flow(src=0, dst=1, volume=volume)

    def test_negative_port_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Flow(src=-1, dst=1, volume=1.0)


class TestCoflow:
    def test_merges_duplicate_pairs(self):
        cf = Coflow([Flow(0, 1, 2.0), Flow(0, 1, 3.0), Flow(1, 2, 1.0)])
        assert cf.width == 2
        vols = {(f.src, f.dst): f.volume for f in cf}
        assert vols == {(0, 1): 5.0, (1, 2): 1.0}

    def test_total_volume(self):
        cf = Coflow([Flow(0, 1, 2.0), Flow(1, 0, 3.0)])
        assert cf.total_volume == 5.0

    def test_flow_ids_assigned_sequentially(self):
        cf = Coflow([Flow(2, 0, 1.0), Flow(0, 1, 1.0)])
        assert [f.flow_id for f in cf] == [0, 1]

    def test_max_port(self):
        cf = Coflow([Flow(0, 7, 1.0)])
        assert cf.max_port == 7
        assert Coflow([]).max_port == -1

    def test_port_loads(self):
        cf = Coflow([Flow(0, 1, 3.0), Flow(2, 1, 1.0), Flow(1, 2, 2.0)])
        send, recv = cf.port_loads(3)
        assert send.tolist() == [3.0, 2.0, 1.0]
        assert recv.tolist() == [0.0, 4.0, 2.0]

    def test_bottleneck_is_max_port_load_over_rate(self):
        cf = Coflow([Flow(0, 1, 3.0), Flow(2, 1, 1.0), Flow(1, 2, 2.0)])
        assert cf.bottleneck(3, rate=1.0) == 4.0
        assert cf.bottleneck(3, rate=2.0) == 2.0

    def test_bottleneck_empty_coflow(self):
        assert Coflow([]).bottleneck(3) == 0.0

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError, match="arrival_time"):
            Coflow([Flow(0, 1, 1.0)], arrival_time=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [("arrival_time", np.nan), ("arrival_time", np.inf),
         ("deadline", np.nan), ("deadline", np.inf),
         ("weight", np.nan), ("weight", np.inf)],
    )
    def test_non_finite_field_rejected(self, field, value):
        # A NaN arrival once ran the simulator to its watchdog at t = nan,
        # an infinite one reported CCT nan.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Coflow([Flow(0, 1, 1.0)], **{field: value})

    def test_volume_matrix_roundtrip(self):
        cf = Coflow([Flow(0, 1, 3.0), Flow(1, 2, 2.0)])
        mat = cf.volume_matrix(3)
        assert mat[0, 1] == 3.0 and mat[1, 2] == 2.0
        assert mat.sum() == 5.0


class TestCoflowFromMatrix:
    def test_diagonal_ignored(self):
        vol = np.array([[5.0, 1.0], [2.0, 7.0]])
        cf = coflow_from_matrix(vol)
        assert cf.total_volume == 3.0
        assert cf.width == 2

    def test_zero_entries_skipped(self):
        vol = np.zeros((3, 3))
        vol[0, 1] = 4.0
        cf = coflow_from_matrix(vol)
        assert cf.width == 1

    def test_min_volume_threshold(self):
        vol = np.array([[0.0, 0.5], [3.0, 0.0]])
        cf = coflow_from_matrix(vol, min_volume=1.0)
        assert cf.width == 1 and cf.flows[0].volume == 3.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            coflow_from_matrix(np.zeros((2, 3)))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            coflow_from_matrix(np.array([[0.0, -1.0], [0.0, 0.0]]))

    def test_nan_entry_rejected(self):
        # It used to be dropped silently.
        with pytest.raises(ValueError, match="non-negative"):
            coflow_from_matrix(np.array([[0.0, np.nan], [1.0, 0.0]]))

    def test_infinite_entry_rejected(self):
        with pytest.raises(ValueError, match="volume must be finite"):
            coflow_from_matrix(np.array([[0.0, np.inf], [1.0, 0.0]]))

    def test_matches_coflow_port_loads(self):
        rng = np.random.default_rng(3)
        vol = rng.integers(0, 10, size=(5, 5)).astype(float)
        cf = coflow_from_matrix(vol)
        send, recv = cf.port_loads(5)
        off = vol.copy()
        np.fill_diagonal(off, 0.0)
        np.testing.assert_allclose(send, off.sum(axis=1))
        np.testing.assert_allclose(recv, off.sum(axis=0))
