"""Property-based tests (hypothesis) on the core invariants.

These pin the algebraic relationships that the whole reproduction leans
on: the vectorized model evaluation, the equivalence of the two
Algorithm 1 implementations, Mini's traffic optimality, the closed-form
CCT = simulator CCT identity, and conservation laws of the shuffle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.heuristic import ccf_heuristic
from repro.core.model import ShuffleModel, group_by_destination
from repro.core.strategies import hash_assignment, mini_assignment
from repro.join.partitioner import HashPartitioner
from repro.join.relation import DistributedRelation
from repro.join.shuffle import execute_shuffle
from repro.network.fabric import Fabric
from repro.network.flow import coflow_from_matrix
from repro.network.schedulers import make_scheduler
from repro.network.schedulers.base import maxmin_fill_fast
from repro.network.simulator import CoflowSimulator
from repro.workloads.synthetic import adversarial_locality_instance
from repro.workloads.zipf import zipf_weights
from tests.conftest import brute_force_metrics
from tests.oracles import ccf_heuristic_reference


@st.composite
def chunk_matrices(draw, max_n=5, max_p=8):
    """Random integer chunk matrices (integers avoid float-tie ambiguity)."""
    n = draw(st.integers(2, max_n))
    p = draw(st.integers(1, max_p))
    h = draw(
        arrays(
            dtype=np.int64,
            shape=(n, p),
            elements=st.integers(0, 50),
        )
    )
    return h.astype(float)


@st.composite
def models_with_dest(draw):
    h = draw(chunk_matrices())
    n, p = h.shape
    dest = draw(
        arrays(dtype=np.int64, shape=(p,), elements=st.integers(0, n - 1))
    )
    return ShuffleModel(h=h, rate=1.0), dest


class TestModelInvariants:
    @given(models_with_dest())
    @settings(max_examples=60, deadline=None)
    def test_evaluate_matches_brute_force(self, case):
        model, dest = case
        got = model.evaluate(dest)
        traffic, send, recv, t = brute_force_metrics(model.h, dest)
        assert got.traffic == pytest.approx(traffic)
        np.testing.assert_allclose(got.send_loads, send)
        np.testing.assert_allclose(got.recv_loads, recv)
        assert got.bottleneck_bytes == pytest.approx(t)

    @given(models_with_dest())
    @settings(max_examples=60, deadline=None)
    def test_bottleneck_bounds_traffic(self, case):
        # T <= traffic <= n * T: some port carries at least traffic/n.
        model, dest = case
        m = model.evaluate(dest)
        assert m.bottleneck_bytes <= m.traffic + 1e-9
        assert m.traffic <= 2 * model.n * m.bottleneck_bytes + 1e-9

    @given(models_with_dest())
    @settings(max_examples=40, deadline=None)
    def test_group_by_destination_conserves_bytes(self, case):
        model, dest = case
        grouped = group_by_destination(model.h, dest)
        assert grouped.sum() == pytest.approx(model.h.sum())


class TestStrategyInvariants:
    @given(models_with_dest())
    @settings(max_examples=60, deadline=None)
    def test_mini_traffic_is_global_minimum(self, case):
        model, dest = case
        mini_traffic = model.evaluate(mini_assignment(model)).traffic
        assert model.evaluate(dest).traffic >= mini_traffic - 1e-9

    @given(chunk_matrices())
    @settings(max_examples=40, deadline=None)
    def test_heuristic_implementations_agree(self, h):
        model = ShuffleModel(h=h, rate=1.0)
        np.testing.assert_array_equal(
            ccf_heuristic(model), ccf_heuristic_reference(model)
        )

    @given(chunk_matrices())
    @settings(max_examples=40, deadline=None)
    def test_heuristic_within_band_of_baselines(self, h):
        # Algorithm 1 is a greedy and CAN lose to the baselines on
        # adversarial instances (hypothesis found T=19 vs 18 on a 3x4
        # matrix, and later T=8 vs Mini's 5 on the 2x5 matrix pinned
        # below), so dominance is not an invariant.  What must hold is
        # that it never degrades catastrophically: within 2x of the
        # better baseline on arbitrary integer instances (it wins on the
        # paper's workload class, asserted elsewhere).
        model = ShuffleModel(h=h, rate=1.0)
        t_ccf = model.evaluate(ccf_heuristic(model)).bottleneck_bytes
        t_hash = model.evaluate(hash_assignment(model)).bottleneck_bytes
        t_mini = model.evaluate(mini_assignment(model)).bottleneck_bytes
        assert t_ccf <= 2.0 * min(t_hash, t_mini) + 1e-9

    def test_heuristic_worst_known_adversarial_instance(self):
        # The worst band violation hypothesis has found so far, kept as
        # the named fixture `adversarial_locality_instance`: the
        # greedy's locality tie-break parks the early tied partitions
        # on their holder node "for free", leaving the symmetric final
        # partition nowhere cheap to go (T=8) where Mini reaches 5.
        # Pinned so the ratio is tracked deliberately rather than
        # rediscovered at random; docs/algorithms.md explains the trace.
        model = adversarial_locality_instance()
        t_ccf = model.evaluate(ccf_heuristic(model)).bottleneck_bytes
        t_mini = model.evaluate(mini_assignment(model)).bottleneck_bytes
        assert t_mini == 5.0
        assert t_ccf == 8.0  # 1.6x -- inside the 2x band asserted above

    @given(chunk_matrices())
    @settings(max_examples=40, deadline=None)
    def test_heuristic_respects_lower_bound(self, h):
        model = ShuffleModel(h=h, rate=1.0)
        t = model.evaluate(ccf_heuristic(model)).bottleneck_bytes
        assert t >= model.bottleneck_lower_bound() - 1e-9


class TestSimulatorInvariants:
    @given(models_with_dest())
    @settings(max_examples=25, deadline=None)
    def test_sebf_cct_equals_closed_form(self, case):
        model, dest = case
        metrics = model.evaluate(dest)
        cf = model.to_coflow(dest)
        if cf.width == 0:
            return
        fabric = Fabric(n_ports=model.n, rate=1.0)
        res = CoflowSimulator(fabric, make_scheduler("sebf")).run([cf])
        assert res.max_cct == pytest.approx(metrics.cct, rel=1e-9)

    @given(models_with_dest())
    @settings(max_examples=25, deadline=None)
    def test_fair_cct_at_least_closed_form(self, case):
        model, dest = case
        cf = model.to_coflow(dest)
        if cf.width == 0:
            return
        fabric = Fabric(n_ports=model.n, rate=1.0)
        res = CoflowSimulator(fabric, make_scheduler("fair")).run([cf])
        assert res.max_cct >= model.evaluate(dest).cct - 1e-9

    @given(
        st.integers(2, 6),
        st.integers(1, 12),
        st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_maxmin_respects_capacities(self, n, m, seed):
        rng = np.random.default_rng(seed)
        srcs = rng.integers(0, n, m)
        dsts = (srcs + 1 + rng.integers(0, n - 1, m)) % n
        rates = maxmin_fill_fast(srcs, dsts + n, np.ones(2 * n))
        out = np.bincount(srcs, weights=rates, minlength=n)
        inb = np.bincount(dsts, weights=rates, minlength=n)
        assert (out <= 1 + 1e-6).all()
        assert (inb <= 1 + 1e-6).all()
        # Work conservation: every flow has a saturated port.
        for f in range(m):
            assert out[srcs[f]] >= 1 - 1e-6 or inb[dsts[f]] >= 1 - 1e-6


class TestShuffleInvariants:
    @given(
        st.integers(2, 5),
        st.integers(1, 8),
        st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_shuffle_conserves_and_matches_model(self, n, p, seed):
        rng = np.random.default_rng(seed)
        shards = [rng.integers(0, 30, size=rng.integers(0, 20)) for _ in range(n)]
        rel = DistributedRelation(shards=shards, payload_bytes=4.0)
        part = HashPartitioner(p=p)
        dest = rng.integers(0, n, size=p)
        out = execute_shuffle(rel, part, dest)
        assert out.relation.total_tuples == rel.total_tuples
        model = ShuffleModel(h=part.chunk_matrix(rel), rate=1.0)
        np.testing.assert_allclose(out.volume_matrix, model.volume_matrix(dest))

    @given(st.integers(1, 40), st.floats(0.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_zipf_weights_normalized_and_monotone(self, n, s):
        w = zipf_weights(n, s)
        assert w.sum() == pytest.approx(1.0)
        assert (np.diff(w) <= 1e-15).all()


class TestCoflowInvariants:
    @given(
        arrays(
            dtype=np.int64,
            shape=st.tuples(st.integers(2, 5), st.integers(2, 5)).filter(
                lambda t: t[0] == t[1]
            ),
            elements=st.integers(0, 20),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_coflow_from_matrix_roundtrip(self, vol):
        vol = vol.astype(float)
        cf = coflow_from_matrix(vol)
        off = vol.copy()
        np.fill_diagonal(off, 0.0)
        assert cf.total_volume == pytest.approx(off.sum())
        np.testing.assert_allclose(cf.volume_matrix(vol.shape[0]), off)
