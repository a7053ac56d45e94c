"""Tests for the seeded open-loop arrival streams."""

import numpy as np
import pytest

from repro.service.arrivals import (
    ArrivalConfig,
    ArrivalStream,
    expected_coflow_bytes,
    offered_load,
    rate_for_load,
)


def _snapshot(stream, n=None):
    """(arrival_time, id, total volume, width) per coflow, for equality."""
    out = []
    for cf in stream:
        out.append(
            (cf.arrival_time, cf.coflow_id, cf.total_volume, len(cf.flows))
        )
        if n is not None and len(out) >= n:
            break
    return out


class TestArrivalConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalConfig(n_ports=1)
        with pytest.raises(ValueError):
            ArrivalConfig(users=0)
        with pytest.raises(ValueError):
            ArrivalConfig(qps_per_user=0.0)
        with pytest.raises(ValueError):
            ArrivalConfig(process="uniform")
        with pytest.raises(ValueError):
            ArrivalConfig(pareto_alpha=1.0)
        with pytest.raises(ValueError):
            ArrivalConfig(size_mix="weird")
        with pytest.raises(ValueError):
            ArrivalConfig(zipf_a=1.0)
        with pytest.raises(ValueError):
            ArrivalConfig(size_scale=0.0)
        with pytest.raises(ValueError):
            ArrivalConfig(max_arrivals=-1)
        with pytest.raises(ValueError):
            ArrivalConfig(horizon=0.0)
        with pytest.raises(ValueError):
            ArrivalConfig(horizon=float("nan"))  # used to cut nothing

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field", ["qps_per_user", "pareto_alpha", "zipf_a", "size_scale"])
    def test_nan_and_inf_rejected(self, field, bad):
        # Either one ends in a zero port rate or a run that never ends.
        with pytest.raises(ValueError, match=field):
            ArrivalConfig(**{field: bad})

    def test_arrival_rate_composes_users_and_qps(self):
        cfg = ArrivalConfig(users=50, qps_per_user=0.2)
        assert cfg.arrival_rate == pytest.approx(10.0)


class TestArrivalStream:
    def test_deterministic_replay(self):
        cfg = ArrivalConfig(max_arrivals=200, seed=3)
        assert _snapshot(ArrivalStream(cfg)) == _snapshot(ArrivalStream(cfg))

    def test_seed_changes_stream(self):
        a = _snapshot(ArrivalStream(ArrivalConfig(max_arrivals=50, seed=1)))
        b = _snapshot(ArrivalStream(ArrivalConfig(max_arrivals=50, seed=2)))
        assert a != b

    def test_process_changes_gaps_not_validity(self):
        cfg = ArrivalConfig(max_arrivals=50, process="pareto", seed=5)
        coflows = list(ArrivalStream(cfg))
        assert len(coflows) == 50
        times = [c.arrival_time for c in coflows]
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_ids_sequential_times_increasing(self):
        coflows = list(ArrivalStream(ArrivalConfig(max_arrivals=80, seed=0)))
        assert [c.coflow_id for c in coflows] == list(range(80))
        times = [c.arrival_time for c in coflows]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_flows_stay_on_fabric(self):
        cfg = ArrivalConfig(n_ports=6, max_arrivals=60, seed=9)
        for cf in ArrivalStream(cfg):
            for f in cf.flows:
                assert 0 <= f.src < 6
                assert 0 <= f.dst < 6
                assert f.src != f.dst
                assert f.volume > 0

    def test_skip_equals_pop(self):
        cfg = ArrivalConfig(max_arrivals=30, seed=4)
        a = ArrivalStream(cfg)
        a.skip(10)
        b = ArrivalStream(cfg)
        for _ in range(10):
            b.pop()
        assert _snapshot(a) == _snapshot(b)

    def test_horizon_cuts_stream(self):
        cfg = ArrivalConfig(max_arrivals=10_000, horizon=5.0, seed=0)
        coflows = list(ArrivalStream(cfg))
        assert coflows
        assert len(coflows) < 10_000
        assert all(c.arrival_time <= 5.0 for c in coflows)

    def test_exhaustion(self):
        stream = ArrivalStream(ArrivalConfig(max_arrivals=3, seed=0))
        assert len(list(stream)) == 3
        assert stream.peek_time() is None
        with pytest.raises(StopIteration):
            stream.pop()

    def test_zipf_mix(self):
        cfg = ArrivalConfig(size_mix="zipf", max_arrivals=60, seed=2)
        coflows = list(ArrivalStream(cfg))
        assert len(coflows) == 60
        assert all(1 <= len(c.flows) <= 16 for c in coflows)

    def test_bounded_memory_is_lazy(self):
        # The stream never materializes more than one coflow.
        stream = ArrivalStream(ArrivalConfig(max_arrivals=1_000_000))
        assert stream.generated == 1
        stream.pop()
        assert stream.generated == 2


class TestCapacityMath:
    @pytest.mark.parametrize("mix", ["facebook", "zipf"])
    def test_analytic_mean_matches_empirical(self, mix):
        cfg = ArrivalConfig(size_mix=mix, max_arrivals=4000, seed=11)
        sizes = [cf.total_volume for cf in ArrivalStream(cfg)]
        analytic = expected_coflow_bytes(cfg)
        assert np.mean(sizes) == pytest.approx(analytic, rel=0.15)

    def test_rate_load_roundtrip(self):
        cfg = ArrivalConfig()
        rate = rate_for_load(cfg, 0.8)
        assert offered_load(cfg, rate) == pytest.approx(0.8)

    def test_mean_scales_linearly(self):
        a = expected_coflow_bytes(ArrivalConfig(size_scale=0.001))
        b = expected_coflow_bytes(ArrivalConfig(size_scale=0.002))
        assert b == pytest.approx(2 * a)

    def test_validation(self):
        with pytest.raises(ValueError):
            offered_load(ArrivalConfig(), 0.0)
        with pytest.raises(ValueError):
            rate_for_load(ArrivalConfig(), -1.0)
        for load in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="load"):
                rate_for_load(ArrivalConfig(), load)
