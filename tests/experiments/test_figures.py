"""Shape tests for Figures 5/6/7 at reduced scale.

The paper's absolute byte/second values depend on its testbed constants;
what must reproduce is the *shape*: who wins, by roughly what factor, and
the monotonicities called out in the text.  These tests pin the shapes at
a reduced scale factor (the analytic workload's metrics scale linearly
with SF, so shapes are invariant).
"""

import numpy as np
import pytest

from repro.experiments.engine import run_sweep
from repro.experiments.figures import (
    SweepConfig,
    fig5_sweep,
    fig6_sweep,
    fig7_sweep,
)

CFG = SweepConfig(scale_factor=30.0, n_nodes=60)


@pytest.fixture(scope="module")
def fig5():
    return run_sweep(fig5_sweep(CFG, nodes=(20, 40, 80))).table


@pytest.fixture(scope="module")
def fig6():
    return run_sweep(fig6_sweep(CFG, zipfs=(0.0, 0.4, 0.8))).table


@pytest.fixture(scope="module")
def fig7():
    return run_sweep(fig7_sweep(CFG, skews=(0.0, 0.2, 0.4))).table


class TestFig5Shapes:
    def test_ccf_always_fastest(self, fig5):
        ccf = fig5.column("ccf_cct_s")
        for other in ("hash", "mini"):
            col = fig5.column(f"{other}_cct_s")
            assert all(c <= o + 1e-9 for c, o in zip(ccf, col))

    def test_mini_always_slowest(self, fig5):
        mini = fig5.column("mini_cct_s")
        hash_ = fig5.column("hash_cct_s")
        assert all(m > h for m, h in zip(mini, hash_))

    def test_traffic_ordering_mini_ccf_hash(self, fig5):
        mini = fig5.column("mini_traffic_gb")
        ccf = fig5.column("ccf_traffic_gb")
        hash_ = fig5.column("hash_traffic_gb")
        assert all(m <= c <= h for m, c, h in zip(mini, ccf, hash_))

    def test_speedup_over_mini_grows_with_nodes(self, fig5):
        mini = fig5.column("mini_cct_s")
        ccf = fig5.column("ccf_cct_s")
        speedups = [m / c for m, c in zip(mini, ccf)]
        assert speedups == sorted(speedups)
        assert speedups[0] > 3  # substantial even at the smallest scale


class TestFig6Shapes:
    def test_hash_roughly_constant(self, fig6):
        hash_ = fig6.column("hash_cct_s")
        assert max(hash_) / min(hash_) < 1.6

    def test_ccf_grows_with_zipf(self, fig6):
        ccf = fig6.column("ccf_cct_s")
        assert ccf == sorted(ccf)

    def test_traffic_decreases_with_zipf(self, fig6):
        for s in ("hash", "mini", "ccf"):
            col = fig6.column(f"{s}_traffic_gb")
            assert col == sorted(col, reverse=True)

    def test_mini_traffic_falls_fastest(self, fig6):
        mini = fig6.column("mini_traffic_gb")
        hash_ = fig6.column("hash_traffic_gb")
        assert (mini[0] - mini[-1]) > (hash_[0] - hash_[-1])

    def test_ccf_beats_mini_at_every_zipf(self, fig6):
        mini = fig6.column("mini_cct_s")
        ccf = fig6.column("ccf_cct_s")
        assert all(c < m for c, m in zip(ccf, mini))

    def test_largest_speedup_at_uniform(self, fig6):
        hash_ = fig6.column("hash_cct_s")
        ccf = fig6.column("ccf_cct_s")
        speedups = [h / c for h, c in zip(hash_, ccf)]
        assert speedups[0] == max(speedups)


class TestFig7Shapes:
    def test_hash_grows_sharply_with_skew(self, fig7):
        hash_ = fig7.column("hash_cct_s")
        assert hash_ == sorted(hash_)
        assert hash_[-1] > 2 * hash_[0]

    def test_mini_and_ccf_decrease_with_skew(self, fig7):
        for s in ("mini", "ccf"):
            col = fig7.column(f"{s}_cct_s")
            assert col == sorted(col, reverse=True)

    def test_speedup_over_mini_roughly_constant(self, fig7):
        # Paper: "a speedup of 12.8x over Mini" across the whole sweep.
        mini = fig7.column("mini_cct_s")
        ccf = fig7.column("ccf_cct_s")
        speedups = [m / c for m, c in zip(mini, ccf)]
        assert max(speedups) / min(speedups) < 1.15

    def test_ccf_still_wins_without_skew(self, fig7):
        # Paper: "even when the skewness is 0 ... CCF is still faster".
        assert fig7.column("ccf_cct_s")[0] < fig7.column("hash_cct_s")[0]

    def test_traffic_of_mini_ccf_falls_linearly(self, fig7):
        mini = fig7.column("mini_traffic_gb")
        drops = np.diff(mini)
        assert np.allclose(drops, drops[0], rtol=0.15)
