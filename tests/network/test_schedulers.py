"""Unit tests for the scheduling disciplines and their primitives."""

import numpy as np
import pytest

from repro.network.events import CoflowProgress, SchedulingContext
from repro.network.fabric import Fabric
from repro.network.flow import Coflow, Flow
from repro.network.schedulers import SCHEDULER_NAMES, make_scheduler
from repro.network.schedulers.base import madd_rates_fast, maxmin_fill_fast
from repro.network.schedulers.dclas import DCLASScheduler
from repro.network.simulator import CoflowSimulator


def make_ctx(flows, n_ports=3, rate=1.0, sent=None, arrivals=None):
    """Build a SchedulingContext from (src, dst, remaining, coflow_id) rows."""
    srcs = np.array([f[0] for f in flows], dtype=np.int64)
    dsts = np.array([f[1] for f in flows], dtype=np.int64)
    rem = np.array([f[2] for f in flows], dtype=float)
    cids = np.array([f[3] for f in flows], dtype=np.int64)
    progress = {}
    for cid in np.unique(cids):
        mask = cids == cid
        progress[int(cid)] = CoflowProgress(
            coflow_id=int(cid),
            arrival_time=0.0 if arrivals is None else arrivals[int(cid)],
            total_volume=float(rem[mask].sum()),
            width=int(mask.sum()),
            sent_bytes=0.0 if sent is None else sent[int(cid)],
        )
    return SchedulingContext(
        time=0.0,
        fabric=Fabric(n_ports=n_ports, rate=rate),
        srcs=srcs,
        dsts=dsts,
        remaining=rem,
        coflow_ids=cids,
        progress=progress,
    )


class TestMaxMinFill:
    """The kernels take ``dsts + n_ports`` and one combined residual
    vector: egress capacities first, then ingress."""

    def test_single_flow_gets_line_rate(self):
        srcs, dsts = np.array([0]), np.array([1])
        rates = maxmin_fill_fast(srcs, dsts + 2, np.ones(4))
        assert rates[0] == pytest.approx(1.0)

    def test_two_flows_share_common_egress(self):
        srcs, dsts = np.array([0, 0]), np.array([1, 2])
        rates = maxmin_fill_fast(srcs, dsts + 3, np.ones(6))
        np.testing.assert_allclose(rates, [0.5, 0.5])

    def test_classic_maxmin_example(self):
        # Flows: A shares port 0 egress with B; C alone on port 2->1.
        # A: 0->1, B: 0->2, C: 2->1. Ingress 1 shared by A and C.
        srcs = np.array([0, 0, 2])
        dsts = np.array([1, 2, 1])
        rates = maxmin_fill_fast(srcs, dsts + 3, np.ones(6))
        np.testing.assert_allclose(rates, [0.5, 0.5, 0.5])

    def test_subset_restriction(self):
        srcs = np.array([0, 0])
        dsts = np.array([1, 2])
        rates = maxmin_fill_fast(
            srcs, dsts + 3, np.ones(6), subset=np.array([1])
        )
        assert rates[0] == 0.0 and rates[1] == pytest.approx(1.0)

    def test_increments_existing_rates(self):
        srcs, dsts = np.array([0]), np.array([1])
        rates = np.array([0.3])
        out = maxmin_fill_fast(srcs, dsts + 2, np.full(4, 0.7), rates=rates)
        assert out[0] == pytest.approx(1.0)

    def test_respects_port_capacity(self):
        rng = np.random.default_rng(0)
        n = 6
        m = 30
        srcs = rng.integers(0, n, m)
        dsts = (srcs + 1 + rng.integers(0, n - 1, m)) % n
        rates = maxmin_fill_fast(srcs, dsts + n, np.ones(2 * n))
        out = np.bincount(srcs, weights=rates, minlength=n)
        inb = np.bincount(dsts, weights=rates, minlength=n)
        assert (out <= 1 + 1e-9).all() and (inb <= 1 + 1e-9).all()


class TestMADD:
    def test_flows_finish_together(self):
        srcs = np.array([0, 2])
        dsts = np.array([1, 1])
        rem = np.array([3.0, 1.0])
        rates = np.zeros(2)
        ok = madd_rates_fast(srcs, dsts + 3, rem, np.ones(6),
                             np.array([0, 1]), rates)
        assert ok
        # Gamma = 4 (ingress port 1); rates are rem / 4.
        np.testing.assert_allclose(rates, [0.75, 0.25])
        np.testing.assert_allclose(rem / rates, [4.0, 4.0])

    def test_blocked_when_port_exhausted(self):
        srcs, dsts = np.array([0]), np.array([1])
        rem = np.array([1.0])
        rates = np.zeros(1)
        # Egress port 0 is exhausted.
        ok = madd_rates_fast(srcs, dsts + 2, rem,
                             np.array([0.0, 1.0, 1.0, 1.0]),
                             np.array([0]), rates)
        assert not ok and rates[0] == 0.0

    def test_empty_subset_ok(self):
        ok = madd_rates_fast(
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0),
            np.ones(4), np.empty(0, np.int64), np.empty(0),
        )
        assert ok


class TestOrderings:
    def test_scf_orders_by_remaining_bytes(self):
        ctx = make_ctx([(0, 1, 10.0, 0), (0, 2, 1.0, 1)])
        sched = make_scheduler("scf", backfill=False)
        rates = sched.allocate(ctx)
        # Small coflow served first at line rate; big gets nothing on port 0.
        assert rates[1] == pytest.approx(1.0)
        assert rates[0] == pytest.approx(0.0)

    def test_fifo_orders_by_arrival(self):
        ctx = make_ctx(
            [(0, 1, 10.0, 0), (0, 2, 1.0, 1)], arrivals={0: 0.0, 1: 5.0}
        )
        sched = make_scheduler("fifo", backfill=False)
        rates = sched.allocate(ctx)
        assert rates[0] == pytest.approx(1.0) and rates[1] == pytest.approx(0.0)

    def test_ncf_prefers_narrow(self):
        ctx = make_ctx(
            [(0, 1, 1.0, 0), (1, 2, 1.0, 0), (0, 2, 9.0, 1)]
        )
        sched = make_scheduler("ncf", backfill=False)
        rates = sched.allocate(ctx)
        # Coflow 1 is narrower (1 flow vs 2) and gets priority on port 0.
        assert rates[2] == pytest.approx(1.0)

    def test_backfill_uses_leftover_capacity(self):
        ctx = make_ctx([(0, 1, 10.0, 0), (2, 1, 10.0, 1), (2, 0, 4.0, 1)])
        no_bf = make_scheduler("sebf", backfill=False).allocate(ctx)
        bf = make_scheduler("sebf", backfill=True).allocate(ctx)
        assert bf.sum() >= no_bf.sum() - 1e-12

    def test_registry_names_match_class_names(self):
        # The CLI's numpy-free name table, the registry's keys and each
        # class's own ``name`` must agree.
        from repro.network.schedulers import _REGISTRY

        assert SCHEDULER_NAMES == tuple(sorted(_REGISTRY))
        for name, cls in _REGISTRY.items():
            assert cls.name == name
            assert type(make_scheduler(name.upper())) is cls

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("wfq")


class TestDCLAS:
    def test_queue_thresholds(self):
        d = DCLASScheduler(first_threshold=10e6, multiplier=10, num_queues=4)
        assert d.queue_of(0.0) == 0
        assert d.queue_of(9.99e6) == 0
        assert d.queue_of(10e6) == 1
        assert d.queue_of(99e6) == 1
        assert d.queue_of(100e6) == 2
        assert d.queue_of(1e12) == 3  # clamped to lowest queue

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            DCLASScheduler(first_threshold=0)
        with pytest.raises(ValueError):
            DCLASScheduler(multiplier=1.0)
        with pytest.raises(ValueError):
            DCLASScheduler(num_queues=0)

    def test_heavy_senders_sink_in_priority(self):
        # Coflow 0 already sent 1 GB, coflow 1 nothing: 1 wins port 0.
        ctx = make_ctx(
            [(0, 1, 5.0, 0), (0, 2, 5.0, 1)], sent={0: 1e9, 1: 0.0}
        )
        rates = DCLASScheduler().allocate(ctx)
        assert rates[1] == pytest.approx(1.0)
        assert rates[0] == pytest.approx(0.0)

    def test_nonclairvoyant_flag(self):
        assert DCLASScheduler.clairvoyant is False

    def test_dclas_finishes_small_coflow_early_end_to_end(self):
        fab = Fabric(n_ports=3, rate=1.0)
        big = Coflow([Flow(0, 1, 50.0)], name="big")
        small = Coflow([Flow(0, 2, 2.0)], arrival_time=1.0, name="small")
        sim = CoflowSimulator(
            fab, DCLASScheduler(first_threshold=5.0, multiplier=2, num_queues=4)
        )
        res = sim.run([big, small])
        # Big coflow crosses the 5-byte threshold at t=5 and sinks to
        # queue 1; small (queue 0) then preempts it on the shared egress
        # port, runs t=5..7, and big resumes until t=52.
        assert res.ccts[1] == pytest.approx(6.0)
        assert res.ccts[0] == pytest.approx(52.0)


class TestRatesValidUntil:
    """The event-horizon contract: who may promise reusable rates."""

    def _horizon(self, name):
        sched = make_scheduler(name)
        ctx = make_ctx([(0, 1, 4.0, 0), (1, 2, 2.0, 1)])
        rates = sched.allocate(ctx)
        return sched.rates_valid_until(ctx, rates)

    def test_fair_and_sequential_never_expire(self):
        # Their allocations read only endpoints, capacities and static
        # weights, so under an unchanged active set they hold forever.
        assert self._horizon("fair") == np.inf
        assert self._horizon("sequential") == np.inf

    def test_volume_readers_expire_immediately(self):
        # Anything that ranks on remaining volume or attained service
        # must keep the conservative default: reuse would freeze ranks
        # that drain between epochs.
        for name in ("sebf", "dclas", "scf", "ncf", "wss"):
            assert self._horizon(name) == 0.0  # == ctx.time
