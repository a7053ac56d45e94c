"""Regression tests for the vectorized epoch loop and its bugfixes.

Covers the epoch-loop defects fixed alongside the hot-path rewrite:

- the noise-factor memo is evicted when coflows complete or abort
  (previously it grew without bound over the run);
- arrival admission uses a ULP-scaled slack, so coflows arriving at
  large simulation clocks (>= 1e9 s) are admitted on time (the old
  absolute ``1e-15`` epsilon falls below one float spacing there);
- a coflow whose flows all carry volume below the completion epsilon
  finishes instantly on admission (CCT exactly 0), like ``width == 0``;

plus exact-equality checks of the combined-port / scalar scheduler
kernels against the split-residual oracles in ``tests/oracles.py``, and
of the ordered disciplines' blocked-coflow skip against the oracle
allocation.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.noise import NoisyEstimates
from repro.network import CoflowSimulator, Fabric
from repro.network.dynamics import FabricDynamics, RateEvent
from repro.network.events import CoflowProgress, SchedulingContext
from repro.network.flow import Coflow, Flow
from repro.network.schedulers import make_scheduler, ordered
from repro.network.schedulers.base import madd_rates_fast, maxmin_fill_fast
from tests.oracles import (
    assert_fill_matches_reference,
    madd_rates_reference,
    reference_allocate,
)


def _mix(n=12, n_ports=6, base=0.0, step=0.375):
    # ``step`` is dyadic so ``base + i * step`` is exact even at
    # ``base = 1e9`` -- the shifted workload is the same workload.
    """Small deterministic workload with staggered arrivals."""
    rng = np.random.default_rng(5)
    out = []
    for i in range(n):
        width = int(rng.integers(1, 5))
        flows = []
        for _ in range(width):
            s = int(rng.integers(0, n_ports))
            d = int(rng.integers(0, n_ports - 1))
            if d >= s:
                d += 1
            flows.append(Flow(s, d, float(rng.uniform(0.5, 4.0))))
        out.append(
            Coflow(flows=flows, arrival_time=base + i * step, coflow_id=i)
        )
    return out


class TestNoiseMemoEviction:
    def test_memo_empty_after_clean_run(self):
        sim = CoflowSimulator(
            Fabric(n_ports=6, rate=1.0),
            make_scheduler("sebf"),
            estimate_noise=NoisyEstimates(sigma=0.4, seed=3),
        )
        res = sim.run(_mix())
        assert len(res.ccts) == 12
        # Every coflow completed, so every memo entry must be gone.
        assert sim._noise_factors == {}

    def test_memo_evicted_on_abort(self):
        dyn = FabricDynamics([RateEvent.failure(0.5, 0)])
        sim = CoflowSimulator(
            Fabric(n_ports=6, rate=1.0),
            make_scheduler("sebf"),
            dynamics=dyn,
            recovery="abort",
            estimate_noise=NoisyEstimates(sigma=0.4, seed=3),
        )
        res = sim.run(_mix())
        assert res.failed_coflows  # the scenario really aborts someone
        assert sim._noise_factors == {}


class TestArrivalSlackAtLargeClock:
    """Admission must not depend on the absolute simulation clock."""

    @pytest.mark.parametrize("scheduler", ["sebf", "fair", "dclas"])
    def test_run_is_clock_shift_invariant(self, scheduler):
        near = CoflowSimulator(
            Fabric(n_ports=6, rate=1.0), make_scheduler(scheduler)
        ).run(_mix(base=0.0))
        far = CoflowSimulator(
            Fabric(n_ports=6, rate=1.0), make_scheduler(scheduler)
        ).run(_mix(base=1e9))
        # The shifted run must look time-shifted, not structurally
        # different: same CCTs (up to clock-granularity rounding) and
        # at most one epoch of boundary-merge difference.
        assert abs(far.n_epochs - near.n_epochs) <= 1
        for cid, cct in near.ccts.items():
            assert far.ccts[cid] == pytest.approx(cct, rel=1e-6, abs=1e-5)

    @pytest.mark.parametrize("base", [0.0, 1e6, 1e9])
    def test_boundary_arrivals_spawn_no_dust_epochs(self, base):
        # Each coflow arrives exactly when its predecessor finishes; the
        # volume 1/3 makes every boundary a rounding victim.  With the
        # old absolute 1e-15 slack, the epoch clock lands a few ULP
        # short of the arrival once ULP(t) > 1e-15 (t > ~4.5) and each
        # missed boundary costs an extra sub-ULP epoch (53 epochs for 50
        # coflows at base 0).  The relative slack admits each arrival in
        # its boundary epoch.
        n, v = 50, 1.0 / 3.0
        cfs = [
            Coflow([Flow(0, 1, v)], arrival_time=base + i * v, coflow_id=i)
            for i in range(n)
        ]
        res = CoflowSimulator(
            Fabric(n_ports=2, rate=1.0), make_scheduler("sebf")
        ).run(cfs)
        assert len(res.ccts) == n
        assert res.n_epochs <= n + 2

    def test_boundary_arrival_admitted_on_time(self):
        # Second coflow arrives exactly when the first finishes; at a
        # large clock the epoch boundary lands within a few ULP of the
        # arrival and must still admit it immediately.
        base = 1e9
        cfs = [
            Coflow([Flow(0, 1, 2.0)], arrival_time=base, coflow_id=0),
            Coflow([Flow(0, 1, 1.0)], arrival_time=base + 2.0, coflow_id=1),
        ]
        res = CoflowSimulator(
            Fabric(n_ports=2, rate=1.0), make_scheduler("sebf")
        ).run(cfs)
        assert res.ccts[1] == pytest.approx(1.0, rel=1e-6)


class TestSubEpsilonCoflow:
    def test_all_dust_flows_complete_instantly(self):
        cfs = [
            Coflow(
                [Flow(0, 1, 1e-9), Flow(2, 3, 5e-7)],
                arrival_time=1.0,
                coflow_id=0,
            ),
            Coflow([Flow(0, 1, 4.0)], arrival_time=0.0, coflow_id=1),
        ]
        res = CoflowSimulator(
            Fabric(n_ports=4, rate=1.0), make_scheduler("sebf")
        ).run(cfs)
        # Pinned: the dust coflow's CCT is exactly zero -- it must not
        # linger an epoch at zero rate waiting for the drop pass.
        assert res.ccts[0] == 0.0
        assert res.completion_times[0] == 1.0
        assert res.ccts[1] == pytest.approx(4.0)

    def test_dust_coflow_alone(self):
        cfs = [
            Coflow([Flow(0, 1, 1e-8)], arrival_time=0.0, coflow_id=7),
        ]
        res = CoflowSimulator(
            Fabric(n_ports=2, rate=1.0), make_scheduler("fair")
        ).run(cfs)
        assert res.ccts[7] == 0.0
        # The admission pass completes it before any rate allocation, so
        # at most the single (empty) bookkeeping epoch runs.
        assert res.n_epochs <= 1

    def test_width_zero_still_instant(self):
        cfs = [Coflow([], arrival_time=2.0, coflow_id=3)]
        res = CoflowSimulator(
            Fabric(n_ports=2, rate=1.0), make_scheduler("sebf")
        ).run(cfs)
        assert res.ccts[3] == 0.0


def _random_case(rng, n_flows, n_ports):
    srcs = rng.integers(0, n_ports, size=n_flows)
    dsts = rng.integers(0, n_ports, size=n_flows)
    remaining = rng.uniform(0.1, 10.0, size=n_flows)
    res_out = rng.uniform(0.2, 2.0, size=n_ports)
    res_in = rng.uniform(0.2, 2.0, size=n_ports)
    return srcs, dsts, remaining, res_out, res_in


class TestKernelEquivalence:
    """Fast kernels must reproduce the oracle floats exactly."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("weighted", [False, True])
    def test_maxmin_full(self, seed, weighted):
        rng = np.random.default_rng(seed)
        srcs, dsts, _, res_out, res_in = _random_case(rng, 40, 7)
        weights = rng.uniform(0.5, 3.0, size=40) if weighted else None
        assert_fill_matches_reference(
            srcs, dsts, res_out, res_in, weights=weights
        )

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("size", [1, 3, 9, 33])
    def test_maxmin_subset_scalar_and_array(self, seed, size):
        """Covers both the scalar (<= threshold) and array subset paths."""
        rng = np.random.default_rng(100 + seed)
        srcs, dsts, _, res_out, res_in = _random_case(rng, 40, 7)
        subset = np.sort(
            rng.choice(40, size=min(size, 40), replace=False)
        )
        assert_fill_matches_reference(
            srcs, dsts, res_out, res_in, subset=subset,
            rates=np.zeros(40), zero_rates=True,
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_maxmin_nonzero_rates_backfill(self, seed):
        rng = np.random.default_rng(200 + seed)
        srcs, dsts, _, res_out, res_in = _random_case(rng, 30, 6)
        rates0 = rng.uniform(0.0, 0.3, size=30)
        assert_fill_matches_reference(
            srcs, dsts, res_out, res_in, rates=rates0
        )

    def test_maxmin_large_fabric(self):
        """P = 1000, F = 6000: the fill matches the oracle on a fabric far
        wider than the property tests draw, and its memory stays O(F + P)
        -- its peak is below half of one P x P float array."""
        rng = np.random.default_rng(7)
        srcs, dsts, _, res_out, res_in = _random_case(rng, 6000, 1000)
        rates = rng.uniform(0, 1e-3, 6000)
        assert_fill_matches_reference(srcs, dsts, res_out, res_in, rates=rates)
        res = np.concatenate((res_out, res_in))
        rates = rates.copy()
        tracemalloc.start()
        try:
            maxmin_fill_fast(srcs, dsts + 1000, res, rates=rates)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1000 * 1000 * 8 // 2

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("size", [1, 2, 4, 6, 20])
    def test_madd_scalar_and_array(self, seed, size):
        """Covers the scalar (<= 4) and array MADD paths, incl. blocked."""
        rng = np.random.default_rng(300 + seed)
        srcs, dsts, remaining, res_out, res_in = _random_case(rng, 40, 7)
        if seed % 2:
            res_out[int(srcs[0])] = 0.0  # force a blocked port sometimes
        subset = np.sort(rng.choice(40, size=size, replace=False))
        rates_ref = np.zeros(40)
        ok_ref = madd_rates_reference(
            srcs, dsts, remaining, res_out.copy(), res_in.copy(),
            subset, rates_ref,
        )
        res = np.concatenate((res_out.copy(), res_in.copy()))
        rates_fast = np.zeros(40)
        ok_fast = madd_rates_fast(
            srcs, dsts + 7, remaining, res, subset, rates_fast
        )
        assert ok_ref == ok_fast
        assert (rates_ref == rates_fast).all()

    def test_madd_residual_consumption_matches(self):
        rng = np.random.default_rng(9)
        srcs, dsts, remaining, res_out, res_in = _random_case(rng, 20, 5)
        subset = np.arange(3)  # scalar path
        ro, ri = res_out.copy(), res_in.copy()
        madd_rates_reference(
            srcs, dsts, remaining, ro, ri, subset, np.zeros(20)
        )
        res = np.concatenate((res_out.copy(), res_in.copy()))
        madd_rates_fast(srcs, dsts + 5, remaining, res, subset, np.zeros(20))
        assert (res[:5] == ro).all() and (res[5:] == ri).all()


def _fill_case(flows, res_out, res_in, rates):
    """``(srcs, dsts, res_out, res_in, rates)`` from ``(src, dst)`` pairs."""
    srcs, dsts = (np.array(side) for side in zip(*flows))
    return (srcs, dsts, np.array(res_out, dtype=float),
            np.array(res_in, dtype=float), np.array(rates, dtype=float))


#: Backfills (non-zero starting rates, so the port-cell kernel runs)
#: built to reach each freeze corner of the liveness-free waterfill.
#: Flow 4 -> 4 saturates last in each, so the loop runs on past the
#: corner.
FILL_CORNERS = {
    # Step 1 saturates out0, in1, out2 and in3 together, and each of
    # flows 0 -> 1 and 2 -> 3 has both endpoints among them.
    "several-cells-one-step": _fill_case(
        [(0, 1), (2, 3), (4, 4)],
        [1.0, 9.0, 1.0, 9.0, 5.0], [9.0, 1.0, 9.0, 1.0, 7.0],
        [0.25, 0.5, 0.125],
    ),
    # out0 alone saturates at step 1 through one flow whose far end,
    # in1, saturates at the same step: both ends of one flow.
    "both-ends-one-step": _fill_case(
        [(0, 1), (2, 3), (2, 3), (4, 4)],
        [1.0, 9.0, 8.0, 9.0, 5.0], [9.0, 1.0, 9.0, 9.0, 7.0],
        [0.0, 0.5, 0.5, 0.125],
    ),
    # Seven flows share out0: 0.9 - (0.9 / 7) * 7 is -1.1e-16, which
    # the oracle clamps to +0.0.
    "negative-before-clamp": _fill_case(
        [(0, 1)] * 4 + [(0, 2)] * 3 + [(4, 4)],
        [0.9, 9.0, 9.0, 9.0, 5.0], [9.0, 9.0, 9.0, 9.0, 7.0],
        [0.5] * 8,
    ),
    # A residual already below zero (and a -0.0) on entry: step 0,
    # saturated at once, clamped to +0.0.
    "negative-on-entry": _fill_case(
        [(0, 1), (2, 3), (4, 4)],
        [-0.5, 9.0, -0.0, 9.0, 5.0], [9.0, 9.0, 9.0, 9.0, 7.0],
        [0.25, 0.5, 0.125],
    ),
    # in1's flows leave through out0 (step 1) and out2 (step 2): in1 is
    # emptied with residual left over and must stay inert after.
    "emptied-through-far-ends": _fill_case(
        [(0, 1), (2, 1), (4, 4)],
        [1.0, 9.0, 2.0, 9.0, 5.0], [9.0, 10.0, 9.0, 9.0, 7.0],
        [0.25, 0.5, 0.125],
    ),
}


class TestCellFillCorners:
    """The port-cell waterfill keeps no per-flow liveness and clamps
    only at the end; each corner that argument rests on, bit for bit
    against the oracle, as an all-flows fill and as a subset fill."""

    @pytest.mark.parametrize("name", sorted(FILL_CORNERS))
    def test_all_flows(self, name):
        srcs, dsts, res_out, res_in, rates = FILL_CORNERS[name]
        assert_fill_matches_reference(
            srcs, dsts, res_out, res_in, rates=rates
        )

    @pytest.mark.parametrize("name", sorted(FILL_CORNERS))
    def test_subset(self, name):
        srcs, dsts, res_out, res_in, rates = FILL_CORNERS[name]
        subset = np.arange(1, srcs.size)  # leave flow 0 out
        assert_fill_matches_reference(
            srcs, dsts, res_out, res_in, rates=rates, subset=subset
        )

    def test_several_cells_one_step_values(self):
        srcs, dsts, res_out, res_in, rates = FILL_CORNERS[
            "several-cells-one-step"]
        res = np.concatenate((res_out, res_in))
        rates = maxmin_fill_fast(srcs, dsts + 5, res, rates=rates.copy())
        assert rates.tolist() == [1.25, 1.5, 5.125]
        assert res.tolist() == [0.0, 9.0, 0.0, 9.0, 0.0,
                                9.0, 0.0, 9.0, 0.0, 2.0]

    def test_clamped_residuals_are_positive_zero(self):
        for name in ("negative-before-clamp", "negative-on-entry"):
            srcs, dsts, res_out, res_in, rates = FILL_CORNERS[name]
            res = np.concatenate((res_out, res_in))
            maxmin_fill_fast(srcs, dsts + 5, res, rates=rates.copy())
            assert not np.signbit(res).any(), name

    @pytest.mark.parametrize("seed", range(12))
    def test_tied_residuals(self, seed):
        """Residuals drawn from a few dyadic values tie often, so many
        steps saturate several cells and both ends of flows at once."""
        rng = np.random.default_rng(500 + seed)
        n_ports, n_flows = 6, 48
        srcs = rng.integers(0, n_ports, size=n_flows)
        dsts = rng.integers(0, n_ports, size=n_flows)
        res_out = rng.choice([0.0, 1.0, 2.0, 4.0], size=n_ports)
        res_in = rng.choice([0.0, 1.0, 2.0, 4.0], size=n_ports)
        rates = rng.choice([0.0, 0.5], size=n_flows)
        subset = None if seed % 2 else np.sort(
            rng.choice(n_flows, size=40, replace=False))
        assert_fill_matches_reference(
            srcs, dsts, res_out, res_in, rates=rates, subset=subset
        )


def _contended_context(seed, n_ports=5, n_coflows=24):
    """Many coflows on few ports, one port at exactly the ``1e-9``
    saturation threshold: most coflows find a saturated cell."""
    rng = np.random.default_rng(seed)
    cids, srcs, dsts = [], [], []
    for cid in range(n_coflows):
        width = int(rng.integers(1, 7))
        cids += [cid] * width
        srcs += rng.integers(0, n_ports, size=width).tolist()
        dsts += rng.integers(0, n_ports, size=width).tolist()
    remaining = rng.uniform(0.05, 5.0, size=len(cids))
    fabric = Fabric(n_ports=n_ports, rate=1.0)
    fabric.egress_rates[:] = rng.uniform(0.5, 2.0, size=n_ports)
    fabric.ingress_rates[:] = rng.uniform(0.5, 2.0, size=n_ports)
    fabric.ingress_rates[seed % n_ports] = 1e-9
    progress = {}
    for cid in range(n_coflows):
        idx = [i for i, c in enumerate(cids) if c == cid]
        progress[cid] = CoflowProgress(
            cid, float(rng.uniform(0.0, 1.0)),
            float(remaining[idx].sum()), len(idx),
            weight=float(rng.choice([0.5, 1.0, 2.0])),
        )
    return SchedulingContext(
        time=1.0, fabric=fabric, srcs=np.array(srcs), dsts=np.array(dsts),
        remaining=remaining, coflow_ids=np.array(cids), progress=progress,
    )


class TestOrderedBlockedSkip:
    """``OrderedCoflowScheduler.allocate`` skips a coflow that touches a
    saturated cell instead of running MADD on it.  The allocation must
    equal the oracle's, and every MADD it still runs must serve its
    coflow: the skip catches every blocked coflow, with the mask
    refreshed after each served one."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("name", ["sebf", "wcct5", "fifo"])
    def test_matches_oracle_and_skips_every_blocked(
        self, name, seed, monkeypatch
    ):
        ctx = _contended_context(seed)
        served = []

        def madd(*args):
            served.append(madd_rates_fast(*args))
            return served[-1]

        monkeypatch.setattr(ordered, "madd_rates_fast", madd)
        rates = make_scheduler(name).allocate(ctx)
        expected = reference_allocate(make_scheduler(name), ctx)
        assert rates.tobytes() == expected.tobytes()
        assert all(served)
        # Contended: MADD serves some coflows and most are skipped.
        assert 0 < len(served) < len(ctx.active_coflow_ids()) / 2
