"""Unit tests for Algorithm 1 (vectorized and reference implementations)."""

import itertools
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import heuristic
from repro.core.heuristic import ccf_heuristic
from repro.core.incremental import IncrementalPlanner
from repro.core.model import ShuffleModel
from repro.core.strategies import hash_assignment, mini_assignment
from tests.conftest import random_model
from tests.oracles import ccf_heuristic_reference


def optimal_bottleneck(model: ShuffleModel) -> float:
    """Exhaustive optimum for tiny instances."""
    best = np.inf
    for dest in itertools.product(range(model.n), repeat=model.p):
        t = model.evaluate(np.array(dest, dtype=np.int64)).bottleneck_bytes
        best = min(best, t)
    return best


class TestVectorizedMatchesReference:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("flags", [(True, True), (True, False),
                                       (False, True), (False, False)])
    def test_same_assignment(self, seed, flags):
        rng = np.random.default_rng(seed)
        m = random_model(rng, 4, 8)
        sort_p, loc = flags
        fast = ccf_heuristic(m, sort_partitions=sort_p, locality_tiebreak=loc)
        slow = ccf_heuristic_reference(
            m, sort_partitions=sort_p, locality_tiebreak=loc
        )
        np.testing.assert_array_equal(fast, slow)

    def test_same_assignment_with_initial_flows(self):
        rng = np.random.default_rng(99)
        m = random_model(rng, 3, 6, with_v0=True)
        np.testing.assert_array_equal(
            ccf_heuristic(m), ccf_heuristic_reference(m)
        )

    def test_same_assignment_sparse(self):
        rng = np.random.default_rng(5)
        m = random_model(rng, 5, 10, sparse=0.6)
        np.testing.assert_array_equal(
            ccf_heuristic(m), ccf_heuristic_reference(m)
        )


@st.composite
def tie_heavy_models(draw):
    """Small models with chunks and loads in 0..3: ties everywhere.

    Equal loads, a send-side argmax that is also the recv-side argmax,
    and all-zero columns all turn up often at these sizes.
    """
    n = draw(st.integers(1, 5))
    p = draw(st.integers(0, 9))
    small = st.integers(0, 3)
    h = np.array(draw(st.lists(small, min_size=n * p, max_size=n * p)),
                 dtype=float).reshape(n, p)
    kwargs = {}
    if draw(st.booleans()):
        v0 = np.array(draw(st.lists(small, min_size=n * n, max_size=n * n)),
                      dtype=float).reshape(n, n)
        np.fill_diagonal(v0, 0.0)
        kwargs["v0"] = v0
    if draw(st.booleans()):
        for name in ("extra_send", "extra_recv"):
            kwargs[name] = np.array(
                draw(st.lists(small, min_size=n, max_size=n)), dtype=float)
    return ShuffleModel(h=h, rate=1.0, **kwargs)


def brute_force_seconds(model, egress, ingress, *, sort_partitions,
                        locality_tiebreak):
    """O(n^2) per partition: rebuild both load vectors for every ``d``."""
    h = model.h
    send, recv = model.initial_loads()
    send, recv = send.copy(), recv.copy()
    order = (np.argsort(-h.max(axis=0), kind="stable") if sort_partitions
             else np.arange(model.p))
    dest = np.zeros(model.p, dtype=np.int64)
    for k in order:
        col, s_k = h[:, k], h[:, k].sum()
        t = np.empty(model.n)
        for d in range(model.n):
            s = send + col
            s[d] = send[d]
            r = recv.copy()
            r[d] += s_k - col[d]
            t[d] = max((s / egress).max(), (r / ingress).max())
        if locality_tiebreak:
            ties = [d for d in range(model.n)
                    if t[d] <= t.min() * (1 + 1e-12) + 1e-9]
            d = max(ties, key=lambda j: (col[j], -j))
        else:
            d = int(t.argmin())
        dest[k] = d
        send += col
        send[d] -= col[d]
        recv[d] += s_k - col[d]
    return dest


class TestStepBitIdentity:
    """The top-2 step picks what a per-destination evaluation picks."""

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_models(), st.booleans(), st.booleans())
    def test_matches_reference(self, m, sort_p, loc):
        fast = ccf_heuristic(m, sort_partitions=sort_p, locality_tiebreak=loc)
        slow = ccf_heuristic_reference(
            m, sort_partitions=sort_p, locality_tiebreak=loc
        )
        np.testing.assert_array_equal(fast, slow)

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_models(), st.booleans(), st.booleans(), st.data())
    def test_hetero_rates_match_brute_force(self, m, sort_p, loc, data):
        rates = st.lists(st.integers(1, 4), min_size=m.n, max_size=m.n)
        egress = np.array(data.draw(rates), dtype=float)
        ingress = np.array(data.draw(rates), dtype=float)
        fast = ccf_heuristic(m, sort_partitions=sort_p, locality_tiebreak=loc,
                             egress_rates=egress, ingress_rates=ingress)
        slow = brute_force_seconds(m, egress, ingress, sort_partitions=sort_p,
                                   locality_tiebreak=loc)
        np.testing.assert_array_equal(fast, slow)

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_models(), st.booleans())
    def test_sorted_feed_planner_matches(self, m, loc):
        send0, recv0 = m.initial_loads()
        planner = IncrementalPlanner(m.n, initial_send=send0,
                                     initial_recv=recv0, locality_tiebreak=loc)
        streamed = np.zeros(m.p, dtype=np.int64)
        for k in np.argsort(-m.h.max(axis=0), kind="stable"):
            streamed[k] = planner.assign(m.h[:, k])
        np.testing.assert_array_equal(
            streamed, ccf_heuristic(m, locality_tiebreak=loc))


def runner_up_cases(model, dest, egress=None, ingress=None, *,
                    sort_partitions=True):
    """Replay ``dest`` and sort each step by what fixes the argmax's score.

    With ``m1`` at ``a1`` the largest of ``send + col`` (scaled by
    ``1/egress``), ``r1`` the largest recv load and ``recv_a`` the grown
    recv load of ``a1`` (scaled by ``1/ingress``), a step needs the
    runner-up only when ``r1 < m1`` and ``recv_a < m1``.  Counts the
    steps that need it and those skipped, split by the bound that
    settles ``a1``'s score (``r1`` or ``recv_a``) and by whether that
    bound ties ``m1``.
    """
    h, n = model.h, model.n
    inv_out = np.ones(n) if egress is None else 1.0 / egress
    inv_in = np.ones(n) if ingress is None else 1.0 / ingress
    send, recv = (x.copy() for x in model.initial_loads())
    order = (np.argsort(-h.max(axis=0), kind="stable") if sort_partitions
             else np.arange(model.p))
    cases = Counter()
    for k, s_k in zip(order, model.partition_sizes[order]):
        col, d = h[:, k], dest[k]
        top = (send + col) * inv_out
        a1 = int(top.argmax())
        m1, r1 = top[a1], (recv * inv_in).max()
        recv_a = (recv[a1] + (s_k - col[a1])) * inv_in[a1]
        if r1 >= m1:
            cases["r1 == m1" if r1 == m1 else "r1 > m1"] += 1
        elif recv_a >= m1:
            cases["recv_a == m1" if recv_a == m1 else "recv_a > m1"] += 1
        else:
            cases["needed"] += 1
        send += col
        send[d] -= col[d]
        recv[d] += s_k - col[d]
    return cases


def spy_runner_up():
    return mock.patch.object(heuristic, "_runner_up",
                             wraps=heuristic._runner_up)


def brute_force_peek(send, recv, col, allowed, locality_tiebreak):
    """``(d, T_d)`` from both load vectors rebuilt for every allowed ``d``."""
    s_k = col.sum()
    t = np.full(send.size, np.inf)
    for d in np.flatnonzero(allowed):
        s = send + col
        s[d] = send[d]
        r = recv.copy()
        r[d] += s_k - col[d]
        t[d] = max(s.max(), r.max())
    if locality_tiebreak:
        ties = [d for d in range(send.size)
                if t[d] <= t.min() * (1 + 1e-12) + 1e-9]
        d = max(ties, key=lambda j: (col[j], -j))
    else:
        d = int(t.argmin())
    return d, t[d]


class TestRunnerUpOnDemand:
    """The step computes the send runner-up exactly when it can matter."""

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_models(), st.booleans(), st.booleans())
    def test_uniform_rates(self, m, sort_p, loc):
        with spy_runner_up() as spy:
            fast = ccf_heuristic(m, sort_partitions=sort_p,
                                 locality_tiebreak=loc)
        np.testing.assert_array_equal(fast, ccf_heuristic_reference(
            m, sort_partitions=sort_p, locality_tiebreak=loc))
        if m.n > 1:
            cases = runner_up_cases(m, fast, sort_partitions=sort_p)
            assert spy.call_count == cases["needed"]

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_models(), st.booleans(), st.booleans(), st.data())
    def test_per_port_rates(self, m, sort_p, loc, data):
        # Power-of-two rates keep the scaled loads exact, so ties survive.
        rates = st.lists(st.sampled_from([1.0, 2.0, 4.0]),
                         min_size=m.n, max_size=m.n)
        egress = np.array(data.draw(rates))
        ingress = np.array(data.draw(rates))
        with spy_runner_up() as spy:
            fast = ccf_heuristic(m, sort_partitions=sort_p,
                                 locality_tiebreak=loc,
                                 egress_rates=egress, ingress_rates=ingress)
        np.testing.assert_array_equal(fast, brute_force_seconds(
            m, egress, ingress, sort_partitions=sort_p,
            locality_tiebreak=loc))
        if m.n > 1:
            cases = runner_up_cases(m, fast, egress, ingress,
                                    sort_partitions=sort_p)
            assert spy.call_count == cases["needed"]

    @pytest.mark.parametrize("rated", [False, True])
    def test_every_branch_is_taken(self, rated):
        rng = np.random.default_rng(3)
        totals = Counter()
        for _ in range(40):
            n, p = int(rng.integers(2, 6)), int(rng.integers(4, 12))
            m = ShuffleModel(h=rng.integers(0, 4, (n, p)).astype(float),
                             rate=1.0)
            rates = (rng.choice([1.0, 2.0, 4.0], n),
                     rng.choice([1.0, 2.0, 4.0], n)) if rated else (None, None)
            with spy_runner_up() as spy:
                dest = ccf_heuristic(m, egress_rates=rates[0],
                                     ingress_rates=rates[1])
            cases = runner_up_cases(m, dest, *rates)
            assert spy.call_count == cases["needed"]
            totals += cases
        # The runner-up is needed, and each skip happens, ties included.
        assert set(totals) == {"needed", "r1 > m1", "r1 == m1",
                               "recv_a > m1", "recv_a == m1"}, totals

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_models(), st.booleans(), st.data())
    def test_planner_peek(self, m, loc, data):
        allowed = np.array(data.draw(st.lists(
            st.booleans(), min_size=m.n, max_size=m.n)), dtype=bool)
        allowed[data.draw(st.integers(0, m.n - 1))] = True
        send0, recv0 = m.initial_loads()
        for mask in (None, allowed):
            planner = IncrementalPlanner(
                m.n, initial_send=send0, initial_recv=recv0,
                locality_tiebreak=loc, allowed=mask)
            everywhere = np.ones(m.n, dtype=bool) if mask is None else mask
            for k in range(m.p):
                col = m.h[:, k]
                send, recv = planner.loads()
                want = brute_force_peek(send, recv, col, everywhere, loc)
                d, t = planner.peek(col)
                assert (d, t) == want
                assert planner.peek(col) == want  # peek commits nothing
                assert planner.assign(col) == d


def patch_block(n, partitions):
    """Make ``ccf_heuristic`` gather ``partitions`` columns per block."""
    nbytes = np.dtype(float).itemsize * n * max(1, partitions)
    return mock.patch.object(heuristic, "_GATHER_BLOCK_BYTES", nbytes)


class TestColumnBlocks:
    """Gathering the sorted columns in blocks changes no pick."""

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_models(), st.booleans(), st.booleans(), st.booleans(),
           st.sampled_from(["1", "2", "3", "p-1", "p", "p+1"]), st.data())
    def test_block_sizes_match(self, m, sort_p, loc, rated, size, data):
        partitions = {"1": 1, "2": 2, "3": 3, "p-1": m.p - 1, "p": m.p,
                      "p+1": m.p + 1}[size]
        rates = {}
        if rated:
            draw = st.lists(st.sampled_from([1.0, 2.0, 4.0]),
                            min_size=m.n, max_size=m.n)
            rates = {"egress_rates": np.array(data.draw(draw)),
                     "ingress_rates": np.array(data.draw(draw))}
        with patch_block(m.n, partitions):
            fast = ccf_heuristic(m, sort_partitions=sort_p,
                                 locality_tiebreak=loc, **rates)
        if rated:
            slow = brute_force_seconds(
                m, rates["egress_rates"], rates["ingress_rates"],
                sort_partitions=sort_p, locality_tiebreak=loc)
        else:
            slow = ccf_heuristic_reference(
                m, sort_partitions=sort_p, locality_tiebreak=loc)
        np.testing.assert_array_equal(fast, slow)

    @pytest.mark.parametrize("partitions", [1, 2, 3, 6, 7, 8])
    def test_partial_last_block(self, partitions):
        # p = 7: blocks of 2 and 3 leave a partial last block, 6 and 7
        # end exactly or one short, 8 is one block larger than p.
        rng = np.random.default_rng(partitions)
        m = random_model(rng, 4, 7, sparse=0.3)
        with patch_block(m.n, partitions):
            fast = ccf_heuristic(m)
        np.testing.assert_array_equal(fast, ccf_heuristic_reference(m))


def pick_paths(model, dest, *, locality_tiebreak, sort_partitions=True):
    """Replay ``dest`` and name the pick path each step needs.

    ``common``: the argmax ``a1`` scores like every other node; within
    it, ``min t above the floor``: no score is clamped, so the step's
    guess that the minimum is the floor fails and it picks again.
    ``a1 alone``: the runner-up lowers ``a1``'s score below ``m1`` by
    more than the tie tolerance, so ``a1`` is the only tie.
    ``runner-up ties``: it lowers it, but others tie with ``a1``.
    ``zero fallback``: (with the tie-break) every tie holds ``0`` bytes
    of the partition, so the first tie wins.
    """
    h, n = model.h, model.n
    send, recv = (x.copy() for x in model.initial_loads())
    order = (np.argsort(-h.max(axis=0), kind="stable") if sort_partitions
             else np.arange(model.p))
    paths = Counter()
    for k in order:
        col, s_k, d = h[:, k], model.partition_sizes[k], dest[k]
        scores = np.empty(n)
        for j in range(n):
            s = send + col
            s[j] = send[j]
            r = recv.copy()
            r[j] += s_k - col[j]
            scores[j] = max(s.max(), r.max())
        best = scores.min()
        thr = best * (1 + 1e-12) + 1e-9 if locality_tiebreak else best
        a1 = int((send + col).argmax())
        m1 = (send + col)[a1]
        t = recv + (s_k - col)
        if not (recv.max() < m1 and t[a1] < m1):
            paths["common"] += 1
            if t.min() > max(m1, recv.max()):
                paths["common, min t above the floor"] += 1
        elif m1 > thr:
            paths["a1 alone"] += 1
        else:
            paths["runner-up ties"] += 1
        if locality_tiebreak and col[scores <= thr].max() <= 0:
            paths["zero fallback"] += 1
        send += col
        send[d] -= col[d]
        recv[d] += s_k - col[d]
    return paths


class TestPickPaths:
    """A seeded corpus on which every way of picking a node occurs."""

    @pytest.mark.parametrize("loc", [True, False])
    def test_every_path_is_taken(self, loc):
        rng = np.random.default_rng(11)
        totals = Counter()
        for trial in range(60):
            n, p = int(rng.integers(2, 6)), int(rng.integers(3, 12))
            h = rng.integers(0, 3, (n, p)).astype(float)
            h[:, rng.random(p) < 0.2] = 0.0  # all-zero columns
            m = ShuffleModel(h=h, rate=1.0)
            with patch_block(n, int(rng.integers(1, p + 2))):
                dest = ccf_heuristic(m, locality_tiebreak=loc)
            np.testing.assert_array_equal(
                dest, ccf_heuristic_reference(m, locality_tiebreak=loc))
            totals += pick_paths(m, dest, locality_tiebreak=loc)
        want = {"common", "common, min t above the floor", "a1 alone",
                "runner-up ties"}
        if loc:
            want.add("zero fallback")
        assert set(totals) == want, totals

    def test_min_t_within_tolerance_above_the_floor(self):
        # Every recv load grows past the floor r1 = 10, node 0's by 0.5e-9
        # and node 1's by 1.2e-9: within the tie tolerance of node 0's
        # score, not of the floor's.  A pick that trusted the floor would
        # keep node 0; the tie-break must see node 1's larger chunk.
        recv = np.array([7 + 0.5e-9, 9 + 1.2e-9, 10.0])
        col = np.array([1.0, 3.0, 0.0])
        planner = IncrementalPlanner(3, initial_recv=recv)
        want = brute_force_peek(np.zeros(3), recv, col, np.ones(3, bool),
                                True)
        assert want[0] == 1
        assert planner.peek(col) == want


class TestQuality:
    def test_beats_or_matches_hash_and_mini_on_paper_workload(self):
        from repro.workloads.analytic import AnalyticJoinWorkload

        wl = AnalyticJoinWorkload(n_nodes=30, scale_factor=3.0)
        m = wl.shuffle_model(skew_handling=True)
        t_ccf = m.evaluate(ccf_heuristic(m)).bottleneck_bytes
        t_hash = m.evaluate(hash_assignment(m)).bottleneck_bytes
        t_mini = m.evaluate(mini_assignment(m)).bottleneck_bytes
        assert t_ccf <= t_hash + 1e-6
        assert t_ccf <= t_mini + 1e-6

    def test_near_optimal_on_tiny_instances(self):
        # Greedy is not optimal in general, but must stay within 2x of the
        # exhaustive optimum on small random instances (empirically it is
        # almost always exactly optimal).
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = random_model(rng, 3, 5)
            t_h = m.evaluate(ccf_heuristic(m)).bottleneck_bytes
            t_star = optimal_bottleneck(m)
            assert t_h <= 2 * t_star + 1e-9

    def test_respects_lower_bound(self, rng):
        m = random_model(rng, 6, 20, with_v0=True)
        t = m.evaluate(ccf_heuristic(m)).bottleneck_bytes
        assert t >= m.bottleneck_lower_bound() - 1e-9

    def test_locality_tiebreak_never_hurts_traffic(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            m = random_model(rng, 5, 12, sparse=0.4)
            with_loc = m.evaluate(
                ccf_heuristic(m, locality_tiebreak=True)
            )
            without = m.evaluate(
                ccf_heuristic(m, locality_tiebreak=False)
            )
            # Same traffic or better, without a worse bottleneck.
            assert with_loc.traffic <= without.traffic + 1e-9


class TestEdgeCases:
    def test_zero_partitions(self):
        m = ShuffleModel(h=np.zeros((3, 0)), rate=1.0)
        assert ccf_heuristic(m).shape == (0,)
        assert ccf_heuristic_reference(m).shape == (0,)

    def test_single_node_all_local(self):
        m = ShuffleModel(h=np.ones((1, 5)), rate=1.0)
        dest = ccf_heuristic(m)
        np.testing.assert_array_equal(dest, np.zeros(5, dtype=np.int64))
        assert m.evaluate(dest).traffic == 0.0

    def test_single_partition_goes_to_dominant_holder(self):
        h = np.array([[10.0], [1.0], [1.0]])
        m = ShuffleModel(h=h, rate=1.0)
        dest = ccf_heuristic(m)
        assert dest[0] == 0  # keeping the 10-byte chunk local minimizes T

    def test_all_zero_chunks(self):
        m = ShuffleModel(h=np.zeros((3, 4)), rate=1.0)
        dest = ccf_heuristic(m)
        assert m.evaluate(dest).bottleneck_bytes == 0.0

    def test_deterministic(self, rng):
        m = random_model(rng, 5, 15)
        a = ccf_heuristic(m)
        b = ccf_heuristic(m)
        np.testing.assert_array_equal(a, b)


class TestSorting:
    def test_sorted_order_processes_big_chunks_first(self):
        # A partition with one huge chunk must be pinned to its holder
        # before small partitions congest that node's receive side.
        h = np.array(
            [
                [100.0, 5.0, 5.0, 5.0],
                [0.0, 5.0, 5.0, 5.0],
                [0.0, 5.0, 5.0, 5.0],
            ]
        )
        m = ShuffleModel(h=h, rate=1.0)
        sorted_t = m.evaluate(ccf_heuristic(m)).bottleneck_bytes
        unsorted_t = m.evaluate(
            ccf_heuristic(m, sort_partitions=False)
        ).bottleneck_bytes
        assert sorted_t <= unsorted_t + 1e-9
