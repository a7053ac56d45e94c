"""Tests for the synthetic workload generators and crossover experiment."""

import numpy as np
import pytest

from repro.core.heuristic import ccf_heuristic
from repro.core.localsearch import refine_assignment
from repro.core.strategies import hash_assignment, mini_assignment
from repro.experiments.crossover import crossover_sweep
from repro.experiments.engine import run_sweep
from repro.workloads.synthetic import (
    adversarial_greedy_instance,
    bimodal_workload,
    clustered_workload,
    lognormal_workload,
)


class TestGenerators:
    def test_lognormal_shape_and_determinism(self):
        a = lognormal_workload(6, 40, seed=3)
        b = lognormal_workload(6, 40, seed=3)
        assert a.h.shape == (6, 40)
        np.testing.assert_array_equal(a.h, b.h)
        assert (a.h >= 0).all()

    def test_lognormal_density(self):
        m = lognormal_workload(10, 200, density=0.2, seed=1)
        frac = (m.h > 0).mean()
        assert 0.1 < frac < 0.3

    def test_lognormal_density_validation(self):
        with pytest.raises(ValueError, match="density"):
            lognormal_workload(4, 8, density=0.0)

    def test_clustered_holder_count(self):
        m = clustered_workload(8, 30, holders_per_partition=3, seed=2)
        holders = (m.h > 0).sum(axis=0)
        assert (holders == 3).all()

    def test_clustered_validation(self):
        with pytest.raises(ValueError, match="holders"):
            clustered_workload(4, 8, holders_per_partition=5)

    def test_bimodal_has_two_modes(self):
        m = bimodal_workload(5, 400, huge_fraction=0.1, ratio=100, seed=4)
        sizes = m.h.sum(axis=0)
        assert sizes.max() / np.median(sizes) > 20

    def test_bimodal_validation(self):
        with pytest.raises(ValueError, match="huge_fraction"):
            bimodal_workload(4, 8, huge_fraction=2.0)
        with pytest.raises(ValueError, match="ratio"):
            bimodal_workload(4, 8, ratio=0.5)

    def test_adversarial_instance_property_holds(self):
        # The documented weakness must stay reproducible.
        m = adversarial_greedy_instance()
        t_greedy = m.evaluate(ccf_heuristic(m)).bottleneck_bytes
        t_best_baseline = min(
            m.evaluate(hash_assignment(m)).bottleneck_bytes,
            m.evaluate(mini_assignment(m)).bottleneck_bytes,
        )
        assert t_greedy > t_best_baseline
        # ... and local search repairs it.
        fixed = refine_assignment(m, ccf_heuristic(m))
        assert fixed.final_t <= t_best_baseline


class TestCrossoverExperiment:
    @pytest.fixture(scope="class")
    def table(self):
        return run_sweep(crossover_sweep(nodes=(2, 4, 16, 24))).table

    def test_broadcast_wins_small_clusters(self, table):
        verdicts = dict(zip(table.column("nodes"), table.column("chooser")))
        assert verdicts[2] == "broadcast"
        assert verdicts[24] == "repartition"

    def test_broadcast_cost_grows_with_n(self, table):
        col = table.column("broadcast_ms")
        assert col == sorted(col)

    def test_verdict_matches_ccts(self, table):
        for b, r, v in zip(
            table.column("broadcast_ms"),
            table.column("repartition_ms"),
            table.column("chooser"),
        ):
            assert (v == "broadcast") == (b < r)
