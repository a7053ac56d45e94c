"""Property-based tests (hypothesis) pinning the simulator hot path.

The production kernels, context helpers and schedulers each have one
implementation; ``tests/oracles.py`` keeps the split-residual and
mask-based formulations they were derived from.  Across random fabrics,
workloads, noise seeds and chaos schedules every scheduler allocation
must equal its oracle's byte for byte, the FlowGroups-backed context
queries must equal their mask scans, the noise view must equal the
per-flow factor loop, and the kernels must return the oracle floats for
any input shape (full set and subsets above and below the scalar
threshold, weighted fills, blocked MADD ports).  The grouping the
simulator derives after completions must equal a rebuild.  Event-horizon
batching (``batch_events``) and the epoch journal (deferred credit and
lazy drains) must leave every result bit-identical, and the journal must
conserve every coflow's bytes.
"""

import collections
import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.noise import NoisyEstimates
from repro.core.resilience import BudgetExceeded
from repro.network import CoflowSimulator, Fabric, recovery, simulator
from repro.network.dynamics import FabricDynamics, RateEvent
from repro.network.events import CoflowProgress, FlowGroups, SchedulingContext
from repro.network.flow import Coflow, Flow
from repro.network.schedulers import (
    DCLASScheduler,
    FairSharingScheduler,
    make_scheduler,
)
from repro.network.schedulers.base import (
    _SCALAR_MAX,
    CoflowScheduler,
    madd_rates_fast,
)
from repro.network.simulator import (
    _DRAIN_MARGIN,
    _MAX_QUEUED_CREDITS,
    _VOLUME_EPS,
    _arrival_slack,
)
from repro.obs.instrument import Instrumentation, Tracer
from tests.oracles import (
    assert_fill_matches_reference,
    madd_rates_reference,
    mask_all_done,
    mask_context,
    mask_value_sums,
    noise_view_reference,
    reference_allocate,
)

_FLOAT_MAX = float(np.finfo(float).max)

SCHEDULERS = (
    "sebf", "dclas", "fair", "wss", "fifo", "scf", "ncf", "wcct5", "lpcct",
)

#: Disciplines and parameterizations beyond ``SCHEDULERS``' defaults
#: that reach the remaining oracle branches: deadline admission (with and
#: without backfill), the sequential worst case, and D-CLAS thresholds
#: low enough for demotions and weighted queue reservations.
VARIANTS = (
    ("deadline", {}),
    ("deadline", {"backfill": False}),
    ("sequential", {}),
    ("dclas", {"first_threshold": 1.0, "multiplier": 2.0}),
    ("dclas", {"first_threshold": 1.0, "multiplier": 2.0,
               "queue_weight_decay": 0.3}),
)


@st.composite
def workloads(draw, *, rich=False):
    """A small random fabric + coflow set with staggered arrivals.

    ``rich`` also draws per-coflow deadlines and weights.
    """
    n_ports = draw(st.integers(3, 6))
    n_coflows = draw(st.integers(2, 8))
    coflows = []
    for cid in range(n_coflows):
        width = draw(st.integers(1, 4))
        flows = []
        for _ in range(width):
            src = draw(st.integers(0, n_ports - 1))
            dst = draw(st.integers(0, n_ports - 2))
            if dst >= src:
                dst += 1
            vol = draw(
                st.floats(0.01, 20.0, allow_nan=False, allow_infinity=False)
            )
            flows.append(Flow(src, dst, vol))
        arrival = draw(st.floats(0.0, 10.0, allow_nan=False))
        extra = {}
        if rich:
            extra["deadline"] = draw(st.none() | st.floats(0.2, 20.0))
            extra["weight"] = draw(st.sampled_from((1.0, 0.5, 2.0, 3.5)))
        coflows.append(
            Coflow(flows=flows, arrival_time=arrival, coflow_id=cid, **extra)
        )
    return n_ports, coflows


def _fingerprint(result):
    return (
        tuple(sorted(result.ccts.items())),
        tuple(sorted(result.completion_times.items())),
        result.n_epochs,
        tuple(sorted(result.failed_coflows)),
        tuple((r.kind, r.time, r.flows) for r in result.failures),
    )


def _run(n_ports, coflows, scheduler, *, noise=None, source=None,
         **sim_kwargs):
    if isinstance(scheduler, str):
        scheduler = make_scheduler(scheduler)
    sim = CoflowSimulator(
        Fabric(n_ports=n_ports, rate=1.0),
        scheduler,
        estimate_noise=noise,
        **sim_kwargs,
    )
    return sim.run(
        [dataclasses.replace(c, flows=list(c.flows)) for c in coflows],
        source=source,
    )


class _OracleChecked(CoflowScheduler):
    """Runs a scheduler and asserts every allocation equals its oracle's.

    The oracle runs on a twin instance, so stateful disciplines (sticky
    deadline admissions, the wcct5/lpcct permutation cache) derive their
    state from the mask-based queries instead of sharing the production
    instance's.
    """

    def __init__(self, name, kwargs):
        self.inner = make_scheduler(name, **kwargs)
        self.twin = make_scheduler(name, **kwargs)
        self.name = self.inner.name
        self.clairvoyant = self.inner.clairvoyant
        self.checked = 0

    def allocate(self, ctx):
        rates = self.inner.allocate(ctx)
        expected = reference_allocate(self.twin, ctx)
        assert rates.dtype == expected.dtype
        assert rates.tobytes() == expected.tobytes()
        self.checked += 1
        return rates

    def next_event_hint(self, ctx, rates):
        return self.inner.next_event_hint(ctx, rates)

    def rates_valid_until(self, ctx, rates):
        return self.inner.rates_valid_until(ctx, rates)

    def reset(self):
        self.inner.reset()
        self.twin.reset()


class TestIncrementalBitIdentity:
    """Every production allocation equals the oracle's, byte for byte.

    The production path is the incremental one: FlowGroups cached across
    epochs and combined-residual kernels.  Each run drives a scheduler
    through the real epoch loop under :class:`_OracleChecked`.
    """

    @settings(max_examples=30, deadline=None)
    @given(workloads(rich=True), st.sampled_from(SCHEDULERS))
    def test_plain(self, wl, scheduler):
        n_ports, coflows = wl
        sched = _OracleChecked(scheduler, {})
        _run(n_ports, coflows, sched)
        assert sched.checked > 0

    @pytest.mark.parametrize(
        "scheduler, kwargs", VARIANTS,
        ids=["deadline", "deadline-no-backfill", "sequential",
             "dclas-low-thresholds", "dclas-weighted-queues"],
    )
    @settings(max_examples=20, deadline=None)
    @given(wl=workloads(rich=True))
    def test_variants(self, scheduler, kwargs, wl):
        n_ports, coflows = wl
        sched = _OracleChecked(scheduler, kwargs)
        _run(n_ports, coflows, sched)
        assert sched.checked > 0

    @settings(max_examples=20, deadline=None)
    @given(
        workloads(),
        st.sampled_from(("sebf", "dclas", "fair", "scf", "wss")),
        st.integers(0, 2 ** 16),
        st.floats(0.05, 0.6),
        st.floats(0.0, 0.3),
    )
    def test_noisy_estimates(self, wl, scheduler, seed, sigma, censor):
        n_ports, coflows = wl
        sched = _OracleChecked(scheduler, {})
        _run(
            n_ports, coflows, sched,
            noise=NoisyEstimates(sigma=sigma, censor_fraction=censor,
                                 seed=seed),
        )
        assert sched.checked > 0

    @settings(max_examples=20, deadline=None)
    @given(
        workloads(rich=True),
        st.sampled_from(("sebf", "fair", "wss", "deadline", "dclas")),
        st.integers(0, 2),
        st.floats(0.01, 20.0),
        st.floats(1.0, 30.0),
        st.sampled_from(("retry", "replan", "abort")),
    )
    def test_chaos_schedule(
        self, wl, scheduler, port, fail_delay, downtime, policy
    ):
        n_ports, coflows = wl
        # The port fails strictly after the first arrival, so at least
        # one allocation precedes any abort and gets checked.
        fail_at = min(c.arrival_time for c in coflows) + fail_delay
        events = [
            RateEvent.failure(fail_at, port),
            RateEvent.recovery(
                fail_at + downtime, port, egress=1.0, ingress=1.0
            ),
        ]
        sched = _OracleChecked(scheduler, {})
        _run(
            n_ports, coflows, sched,
            dynamics=FabricDynamics(list(events)), recovery=policy,
        )
        assert sched.checked > 0


class _ViewRecorder(CoflowScheduler):
    """Records the ``remaining`` view at every allocation, then delegates."""

    def __init__(self, name):
        self.inner = make_scheduler(name)
        self.name = self.inner.name
        self.views = []

    def allocate(self, ctx):
        self.views.append(
            (ctx.remaining.copy(), ctx.coflow_ids.copy(), ctx.srcs.copy(),
             ctx.dsts.copy())
        )
        return self.inner.allocate(ctx)

    def next_event_hint(self, ctx, rates):
        return self.inner.next_event_hint(ctx, rates)

    def rates_valid_until(self, ctx, rates):
        return self.inner.rates_valid_until(ctx, rates)


class TestNoiseView:
    @settings(max_examples=25, deadline=None)
    @given(
        workloads(),
        st.sampled_from(("fair", "dclas", "sequential")),
        st.integers(0, 2 ** 16),
        st.floats(0.05, 0.6),
        st.floats(0.0, 0.3),
    )
    def test_matches_per_flow_oracle(self, wl, scheduler, seed, sigma,
                                     censor):
        # Non-clairvoyant disciplines ignore remaining volumes, so the
        # noisy and the exact run allocate identically epoch by epoch and
        # the exact run supplies the true volumes behind each noisy view.
        n_ports, coflows = wl
        noise = NoisyEstimates(sigma=sigma, censor_fraction=censor, seed=seed)
        exact, noisy = _ViewRecorder(scheduler), _ViewRecorder(scheduler)
        _run(n_ports, coflows, exact)
        _run(n_ports, coflows, noisy, noise=noise)
        assert len(exact.views) == len(noisy.views)
        for (true, cids, srcs, dsts), (view, *_) in zip(
            exact.views, noisy.views
        ):
            expected = noise_view_reference(true, cids, srcs, dsts, noise)
            assert view.tobytes() == expected.tobytes()


@st.composite
def contexts(draw):
    """A random active-flow snapshot with non-contiguous coflow ids."""
    n_ports = draw(st.integers(1, 6))
    pool = draw(
        st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=6,
                 unique=True)
    )
    n_flows = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    cids = rng.choice(np.array(pool, dtype=np.int64), size=n_flows)
    egress = rng.uniform(0.0, 2.0, size=n_ports)
    ingress = rng.uniform(0.0, 2.0, size=n_ports)
    # Some dead ports: load routed through them has an infinite Gamma.
    egress[rng.random(n_ports) < 0.2] = 0.0
    ingress[rng.random(n_ports) < 0.2] = 0.0
    return _context(
        n_ports, cids,
        rng.integers(0, n_ports, size=n_flows),
        rng.integers(0, n_ports, size=n_flows),
        rng.uniform(0.0, 10.0, size=n_flows),
        egress, ingress,
    ), rng.uniform(0.0, 3.0, size=n_flows)


def _context(n_ports, cids, srcs, dsts, remaining, egress=None,
             ingress=None):
    fabric = Fabric(n_ports=n_ports, rate=1.0)
    if egress is not None:
        fabric.egress_rates[:] = egress
        fabric.ingress_rates[:] = ingress
    return SchedulingContext(
        time=0.0,
        fabric=fabric,
        srcs=np.asarray(srcs, dtype=np.int64),
        dsts=np.asarray(dsts, dtype=np.int64),
        remaining=np.asarray(remaining, dtype=float),
        coflow_ids=np.asarray(cids, dtype=np.int64),
        progress={
            int(c): CoflowProgress(int(c), 0.0, 1.0, 1)
            for c in np.unique(cids)
        },
    )


def _assert_matches_masks(ctx, rates):
    ref = mask_context(ctx)
    ids = ref.active_coflow_ids()
    assert ctx.active_coflow_ids() == ids
    for c in (*ids, -1):
        got, want = ctx.flows_of(c), ref.flows_of(c)
        assert got.tolist() == want.tolist()
    assert ctx.remaining_volumes() == ref.remaining_volumes()
    assert ctx.coflow_rate_sums(rates) == ref.coflow_rate_sums(rates)
    assert ctx.remaining_bottlenecks() == ref.remaining_bottlenecks()
    g = ctx.groups
    assert g.value_sums(rates) == mask_value_sums(ctx.coflow_ids, rates)
    done = rates < 1.5
    assert g.all_done_mask(done).tolist() == mask_all_done(
        ctx.coflow_ids, done
    )


class TestContextHelperOracles:
    """FlowGroups-backed queries equal their mask scans exactly."""

    @settings(max_examples=80, deadline=None)
    @given(contexts())
    def test_random(self, case):
        ctx, rates = case
        _assert_matches_masks(ctx, rates)
        # The simulator passes its cached groups; equal answers either way.
        cached = dataclasses.replace(ctx, groups=FlowGroups(ctx.coflow_ids))
        _assert_matches_masks(cached, rates)

    def test_built_without_groups_derives_them(self):
        ctx = _context(3, [9, 2, 9], [0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0])
        assert isinstance(ctx.groups, FlowGroups)
        assert ctx.groups.unique_cids.tolist() == [2, 9]

    def test_empty(self):
        ctx = _context(2, [], [], [], [])
        _assert_matches_masks(ctx, np.empty(0))
        assert ctx.active_coflow_ids() == []
        assert ctx.remaining_bottlenecks() == []

    def test_single_coflow(self):
        ctx = _context(
            3, [5, 5, 5], [0, 1, 2], [1, 2, 0], [1.0, 0.5, 2.5]
        )
        _assert_matches_masks(ctx, np.array([0.2, 1.7, 0.4]))
        assert ctx.remaining_bottlenecks() == [2.5]


def _assert_same_groups(derived, built):
    for name in ("unique_cids", "inverse", "order", "counts", "starts"):
        a, b = getattr(derived, name), getattr(built, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert (a == b).all(), name
    assert derived._slot == built._slot


class TestFlowGroupsKept:
    """``FlowGroups.kept(mask)`` is ``FlowGroups(cids[mask])``, field by
    field -- the simulator derives the survivors' grouping after every
    completion instead of rebuilding it."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(0, 7), max_size=40).flatmap(
            lambda cids: st.tuples(
                st.just(cids),
                st.lists(
                    st.booleans(), min_size=len(cids), max_size=len(cids)
                ),
            )
        )
    )
    def test_matches_rebuild(self, case):
        cids, keep = case
        cids = np.asarray(cids, dtype=np.int64)
        mask = np.asarray(keep, dtype=bool)
        _assert_same_groups(
            FlowGroups(cids).kept(mask), FlowGroups(cids[mask])
        )

    def test_empty_mask(self):
        cids = np.array([3, 1, 3, 2], dtype=np.int64)
        mask = np.zeros(4, dtype=bool)
        derived = FlowGroups(cids).kept(mask)
        _assert_same_groups(derived, FlowGroups(cids[mask]))
        assert derived.n_groups == 0

    def test_all_true_mask(self):
        cids = np.array([3, 1, 3, 2], dtype=np.int64)
        mask = np.ones(4, dtype=bool)
        _assert_same_groups(FlowGroups(cids).kept(mask), FlowGroups(cids))

    def test_vanishing_groups(self):
        # Groups 1 and 4 lose every flow; 7 and 9 lose some.
        cids = np.array([7, 1, 9, 4, 7, 1, 9, 9], dtype=np.int64)
        mask = np.array([1, 0, 1, 0, 0, 0, 0, 1], dtype=bool)
        derived = FlowGroups(cids).kept(mask)
        _assert_same_groups(derived, FlowGroups(cids[mask]))
        assert derived.unique_cids.tolist() == [7, 9]
        assert derived.indices_of(9).tolist() == [1, 2]

    def test_from_empty(self):
        cids = np.empty(0, dtype=np.int64)
        mask = np.empty(0, dtype=bool)
        _assert_same_groups(FlowGroups(cids).kept(mask), FlowGroups(cids))


@st.composite
def scaled_sum_cases(draw):
    """Interleaved groups of 1 to 300 flows (past numpy's 128-element
    pairwise block), magnitudes over 12 decades, 1 to 16 epoch lengths
    (zero included)."""
    sizes = draw(
        st.lists(
            st.integers(1, 8) | st.integers(100, 300), min_size=1, max_size=5
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    cids = rng.permutation(np.repeat(np.arange(len(sizes)) * 3, sizes))
    values = rng.random(cids.size) * 10.0 ** rng.uniform(-3, 9, cids.size)
    scales = draw(
        st.lists(
            st.just(0.0) | st.floats(1e-9, 1e3), min_size=1, max_size=16
        )
    )
    return cids, values, scales


class TestFlowGroupsScaledSums:
    """``scaled_value_sums`` is K sequential ``value_sums`` credits -- the
    simulator queues reuse epochs and credits ``sent_bytes`` in one
    flush."""

    @settings(max_examples=150, deadline=None)
    @given(scaled_sum_cases())
    def test_matches_sequential_value_sums(self, case):
        cids, values, scales = case
        g = FlowGroups(cids)
        batched = g.scaled_value_sums(scales, values)
        per_epoch = [g.value_sums(values * s) for s in scales]
        got = np.array(batched)
        want = np.array(per_epoch).T
        assert got.tobytes() == want.tobytes()
        # Crediting the columns left to right is the per-epoch ``+=``.
        for gi, column in enumerate(batched):
            flushed = sequential = 0.0
            for v in column:
                flushed += v
            for sums in per_epoch:
                sequential += sums[gi]
            assert flushed.hex() == sequential.hex()


class TestArrivalSlack:
    """The admission tolerance is ``max(1e-15, 4 ulp)`` at the clock."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.0, np.nextafter(_FLOAT_MAX, 0.0))
        | st.sampled_from((0.0, 5e-324, 2.2250738585072014e-308, 4.5, 1e9))
    )
    def test_matches_spacing(self, t):
        assert _arrival_slack(t) == max(1e-15, 4 * np.spacing(abs(t)))

    def test_largest_double(self):
        # numpy's spacing overflows to inf at the largest double, the ulp
        # does not; the admission horizon ``t + slack`` is inf either way.
        t = _FLOAT_MAX
        with np.errstate(over="ignore"):
            assert t + _arrival_slack(t) == t + 4 * np.spacing(t) == np.inf


class _ScriptedSource:
    """Deterministic ``ArrivalSource``: a fixed (release, coflow) script.

    Release times may lag the coflows' ``arrival_time`` (a deferred
    admission), which is the service-mode shape that produces repeated
    source-poll epochs on an unchanged fleet -- the exact epochs the
    event-horizon cache elides.
    """

    def __init__(self, entries):
        self.entries = sorted(entries, key=lambda e: e[0])
        self.i = 0

    def next_time(self, now):
        for j in range(self.i, len(self.entries)):
            t = self.entries[j][0]
            if t > now + 1e-15:
                return t
        return None

    def take(self, now, slack):
        out = []
        while (
            self.i < len(self.entries)
            and self.entries[self.i][0] <= now + slack
        ):
            out.append(self.entries[self.i][1])
            self.i += 1
        return out


@st.composite
def sourced_workloads(draw):
    """A workload split between up-front coflows and a release script."""
    n_ports, coflows = draw(workloads())
    initial, scripted = [], []
    for c in coflows:
        if draw(st.booleans()):
            # Released at or after its arrival time: the gap is the
            # admission deferral the CCT keeps charging.
            delay = draw(st.floats(0.0, 5.0, allow_nan=False))
            scripted.append((c.arrival_time + delay, c))
        else:
            initial.append(c)
    return n_ports, initial, scripted


class _PollingSource:
    """An ``ArrivalSource`` that releases nothing but is polled every
    ``period`` until ``until``: admission re-polls on an unchanged fleet,
    the epochs that reuse the cached rates."""

    def __init__(self, period, until):
        self.period = period
        self.until = until

    def next_time(self, now):
        k = math.floor(now / self.period) + 1
        while k * self.period <= now:  # ``now / period`` rounded down
            k += 1
        nxt = k * self.period
        return nxt if nxt < self.until else None

    def take(self, now, slack):
        return []


def _snapshotting(cls, *, hint):
    """``cls`` recording ``{cid: sent_bytes}`` on every ``allocate`` and,
    with ``hint``, on every ``next_event_hint`` too."""

    class Snapshotting(cls):
        def reset(self):
            super().reset()
            self.snapshots = []

        def _snap(self, where, ctx):
            self.snapshots.append((where, ctx.time, {
                cid: p.sent_bytes.hex() for cid, p in ctx.progress.items()
            }))

        def allocate(self, ctx):
            self._snap("allocate", ctx)
            return super().allocate(ctx)

    if hint:
        def next_event_hint(self, ctx, rates):
            self._snap("hint", ctx)
            return super(Snapshotting, self).next_event_hint(ctx, rates)

        Snapshotting.next_event_hint = next_event_hint
    return Snapshotting


def _is_subsequence(short, long):
    it = iter(long)
    return all(any(item == other for other in it) for item in short)


class TestDeferredCredit:
    """``sent_bytes`` is credited lazily, once per allocation; whatever
    reads it -- ``allocate``, D-CLAS's hint, recovery's ``bytes_lost`` --
    must see the value the per-epoch credit produced."""

    def _pair(self, cls, n_ports, coflows, *, hint, **kwargs):
        runs = []
        for batch in (False, True):
            sched = _snapshotting(cls, hint=hint)()
            result = _run(
                n_ports, coflows, sched, batch_events=batch, **kwargs
            )
            runs.append((sched.snapshots, result))
        return runs

    @staticmethod
    def _chaos(port, fail_at):
        return FabricDynamics([
            RateEvent.failure(fail_at, port),
            RateEvent.recovery(fail_at + 5.0, port, egress=1.0, ingress=1.0),
        ])

    @settings(max_examples=25, deadline=None)
    @given(
        workloads(),
        st.integers(0, 2),
        st.floats(0.5, 20.0),
        st.sampled_from(("retry", "abort")),
        st.floats(0.05, 1.0),
        st.booleans(),
    )
    def test_fair_sees_per_epoch_credit(
        self, wl, port, fail_at, policy, period, hint
    ):
        n_ports, coflows = wl
        (off, r_off), (on, r_on) = self._pair(
            FairSharingScheduler, n_ports, coflows, hint=hint,
            dynamics=self._chaos(port, fail_at), recovery=policy,
            source=_PollingSource(period, 40.0),
        )
        # Reuse skips allocations; every one that runs sees the state
        # the allocation-per-epoch run saw at that epoch.  A hint runs
        # every epoch in both runs.
        assert _is_subsequence(on, off)
        hints = [s for s in off if s[0] == "hint"]
        assert hints == [s for s in on if s[0] == "hint"]
        assert _fingerprint(r_off) == _fingerprint(r_on)
        assert [r.bytes_lost for r in r_off.failures] == [
            r.bytes_lost for r in r_on.failures
        ]

    @pytest.mark.parametrize("hint", [False, True])
    def test_fair_reuse_epochs_are_credited(self, hint):
        coflows = [
            Coflow([Flow(0, 1, 5.0), Flow(2, 1, 3.0)], 0.0, coflow_id=0),
            Coflow([Flow(1, 2, 4.0)], 0.5, coflow_id=1),
            Coflow([Flow(2, 0, 6.0)], 2.0, coflow_id=2),
        ]
        # Polls every 10 ms: reuse streaks outgrow the credit queue's cap.
        (off, _), (on, _) = self._pair(
            FairSharingScheduler, 3, coflows, hint=hint,
            source=_PollingSource(0.01, 20.0),
        )
        allocations = [s for s in on if s[0] == "allocate"]
        assert len(allocations) < len(off) / 100  # most epochs reused
        assert any(
            float.fromhex(v) > 0 for _, _, snap in on for v in snap.values()
        )
        assert _is_subsequence(on, off)
        assert [s for s in off if s[0] == "hint"] == [
            s for s in on if s[0] == "hint"
        ]

    @settings(max_examples=25, deadline=None)
    @given(
        workloads(),
        st.integers(0, 2),
        st.floats(0.5, 20.0),
        st.floats(0.05, 1.0),
    )
    def test_dclas_hint_sees_per_epoch_credit(self, wl, port, fail_at, period):
        n_ports, coflows = wl
        (off, r_off), (on, r_on) = self._pair(
            DCLASScheduler, n_ports, coflows, hint=True,
            dynamics=self._chaos(port, fail_at), recovery="retry",
            source=_PollingSource(period, 40.0),
        )
        # D-CLAS never reuses rates, so both runs call the same methods.
        assert any(where == "hint" for where, _, _ in on)
        assert on == off
        assert _fingerprint(r_off) == _fingerprint(r_on)


class _WakeSource:
    """An ``ArrivalSource`` that releases nothing and wakes the epoch loop
    once per listed time: ``take`` consumes one due entry per epoch, so a
    repeated time is a zero-length same-instant re-poll.  ``calls``
    counts ``next_time``, which the loop must call once per epoch."""

    def __init__(self, times):
        self.times = sorted(times)
        self.i = 0
        self.calls = 0

    def next_time(self, now):
        self.calls += 1
        return self.times[self.i] if self.i < len(self.times) else None

    def take(self, now, slack):
        if self.i < len(self.times) and self.times[self.i] <= now + slack:
            self.i += 1
        return []


class _EventRecorder(Instrumentation):
    """Records the event stream like :class:`Tracer`, but asks for no
    flow events or port samples -- so a traced run keeps its lazy
    epochs."""

    enabled = True

    def __init__(self):
        self.events = []

    def emit(self, kind, t, **fields):
        self.events.append({"kind": kind, "t": float(t), **fields})


def _stream(sink):
    """The recorded events without the ``reused`` flag, which tells a
    batched run from an unbatched one."""
    return [
        {k: v for k, v in event.items() if k != "reused"}
        for event in sink.events
    ]


class _FairHorizon(FairSharingScheduler):
    """``fair`` promising its rates for ``horizon`` seconds only, so an
    allocation can follow a lazy streak with nothing else changed; it
    records the volumes every allocation sees."""

    horizon = 0.37

    def reset(self):
        super().reset()
        self.views = []

    def allocate(self, ctx):
        self.views.append((ctx.time, ctx.remaining.tobytes()))
        return super().allocate(ctx)

    def rates_valid_until(self, ctx, rates):
        return ctx.time + self.horizon


#: Disciplines whose ``rates_valid_until`` can pass ``ctx.time``.
REUSING = {
    "fair": FairSharingScheduler,
    "sequential": lambda: make_scheduler("sequential"),
    "fair-horizon": _FairHorizon,
}


@contextlib.contextmanager
def _lazy_drains():
    """Record the lazy tail's length at every ``drain`` in the block: the
    sum is the number of lazy epochs, the maximum the longest tail."""
    flushes = []
    drain = simulator._EpochLoop.drain

    def recording(self):
        flushes.append(len(self.journal) - self.drained)
        drain(self)

    simulator._EpochLoop.drain = recording
    try:
        yield flushes
    finally:
        simulator._EpochLoop.drain = drain


@st.composite
def floor_cases(draw):
    """Volumes of 1 to 5 flows sharing a port, the first wake (before any
    completion), a number of polls and wakes as (edge, ulps) picks."""
    volumes = draw(st.lists(st.floats(0.5, 50.0), min_size=1, max_size=5))
    t_f = draw(st.floats(0.01, 0.3)) * min(volumes) * len(volumes)
    polls = draw(st.integers(0, 9))
    picks = draw(st.lists(
        st.tuples(st.integers(0, 2), st.integers(-4, 3)),
        min_size=1, max_size=4,
    ))
    return volumes, t_f, polls, picks


class TestLazyDrain:
    """A reuse epoch that ends on a wake before the drain floor queues its
    drain; whatever reads the volumes replays the queue first.  Against
    ``batch_events=False`` (allocate and drain every epoch) the results,
    failure logs, traced streams, allocations and source polls must not
    move, and ``next_time`` runs exactly once per epoch."""

    def _pair(self, n_ports, coflows, make, times, *, sink=_EventRecorder,
              **kwargs):
        runs = []
        for batch in (False, True):
            src, obs, sched = _WakeSource(times), sink(), make()
            with _lazy_drains() as flushes:
                result = _run(
                    n_ports, coflows, sched, batch_events=batch,
                    source=src, instrumentation=obs, **kwargs,
                )
            assert src.calls == result.n_epochs
            runs.append((result, obs, sched, sum(flushes), flushes))
        (r_off, o_off, s_off, lazy_off, _), (r_on, o_on, s_on, _, _) = runs
        assert lazy_off == 0
        assert _fingerprint(r_off) == _fingerprint(r_on)
        assert [r.bytes_lost for r in r_off.failures] == [
            r.bytes_lost for r in r_on.failures
        ]
        assert _stream(o_off) == _stream(o_on)
        if isinstance(s_on, _FairHorizon):
            assert _is_subsequence(s_on.views, s_off.views)
        return runs[1]

    @settings(max_examples=25, deadline=None)
    @given(
        workloads(rich=True),
        st.sampled_from(sorted(REUSING)),
        st.floats(0.02, 1.0),
        st.lists(st.integers(0, 60), max_size=6),
        st.none() | st.integers(0, 2 ** 16),
    )
    def test_reuse_streaks(self, wl, scheduler, period, repeats, noise_seed):
        n_ports, coflows = wl
        times = [k * period for k in range(1, int(30 / period))]
        # Repeated polls: zero-length re-polls at the same instant.
        times += [times[i] for i in repeats if i < len(times)]
        noise = None
        if noise_seed is not None:
            noise = NoisyEstimates(sigma=0.3, censor_fraction=0.2,
                                   seed=noise_seed)
        self._pair(n_ports, coflows, REUSING[scheduler], times, noise=noise)

    @settings(max_examples=20, deadline=None)
    @given(
        workloads(),
        st.sampled_from(sorted(REUSING)),
        st.integers(0, 2),
        st.floats(0.5, 20.0),
        st.sampled_from(("retry", "abort")),
        st.floats(0.05, 1.0),
        st.none() | st.integers(0, 2 ** 16),
    )
    def test_chaos(self, wl, scheduler, port, fail_at, policy, period,
                   noise_seed):
        n_ports, coflows = wl
        noise = None
        if noise_seed is not None:
            noise = NoisyEstimates(sigma=0.3, seed=noise_seed)
        self._pair(
            n_ports, coflows, REUSING[scheduler],
            [k * period for k in range(1, int(40 / period))],
            dynamics=TestDeferredCredit._chaos(port, fail_at),
            recovery=policy, noise=noise,
        )

    @settings(max_examples=60, deadline=None)
    @given(floor_cases())
    @example((
        [15.049250670740602, 38.49878736418194], 5.282244483313775, 7,
        [(1, -1)],
    ))
    @example((
        [39.56315387340473, 40.060220795947686, 16.45319287462167,
         39.9336395459297, 11.653757872845425], 6.704949132655625, 7,
        [(1, -2)],
    ))
    def test_wakes_around_the_floor(self, case):
        # ``k`` flows into port 0 share it at rate 1/k.  The first epoch
        # allocates and ends on the first wake ``t_f``; the floor then
        # has a closed form.  After a few polls, wakes land a few ulps
        # either side of the floor, of the margin-free floor and of the
        # first completion.  (The two examples are wakes a margin-free
        # floor would wrongly take as lazy.)
        volumes, t_f, polls, picks = case
        k = len(volumes)
        coflows = [Coflow(
            [Flow(i + 1, 0, v) for i, v in enumerate(volumes)], 0.0,
            coflow_id=0,
        )]
        rate = 1.0 / k
        r_f = min(v - rate * t_f for v in volumes)
        edges = (
            t_f + (1.0 - _DRAIN_MARGIN) * (r_f - _VOLUME_EPS) / rate,
            t_f + (r_f - _VOLUME_EPS) / rate,
            t_f + r_f / rate,
        )
        times = [t_f]
        times += [
            t_f + (edges[1] - t_f) * j / (polls + 1)
            for j in range(1, polls + 1)
        ]
        for edge, ulps in picks:
            wake = edges[edge]
            for _ in range(abs(ulps)):
                wake = np.nextafter(wake, math.copysign(np.inf, ulps))
            times.append(float(wake))
        self._pair(k + 1, coflows, FairSharingScheduler, times)

    @pytest.mark.parametrize("sink", [_EventRecorder, Tracer])
    def test_streaks_past_the_cap(self, sink):
        coflows = [
            Coflow([Flow(0, 1, 5.0), Flow(2, 1, 3.0)], 0.0, coflow_id=0),
            Coflow([Flow(1, 2, 4.0)], 0.5, coflow_id=1),
            Coflow([Flow(2, 0, 6.0)], 2.0, coflow_id=2),
        ]
        times = [k * 0.01 for k in range(1, 1000)]
        result, _, _, lazy, flushes = self._pair(
            3, coflows, FairSharingScheduler, times, sink=sink,
        )
        if sink is Tracer:
            # Residual samples read the volumes every epoch: no lazy drain.
            assert lazy == 0
        else:
            assert lazy > result.n_epochs / 2
            assert max(flushes) == _MAX_QUEUED_CREDITS

    def test_allocation_after_a_streak(self):
        # The horizon expires mid-streak: the allocation that follows
        # (no arrival, no fabric event) must see the drained volumes.
        coflows = [Coflow([Flow(0, 1, 5.0), Flow(2, 1, 3.0)], 0.0,
                          coflow_id=0)]
        _, _, sched, lazy, _ = self._pair(
            3, coflows, _FairHorizon, [k * 0.01 for k in range(1, 1000)],
        )
        assert lazy > 0 and len(sched.views) > 10

    def test_admission_mid_streak(self):
        coflows = [
            Coflow([Flow(0, 1, 5.0), Flow(2, 3, 9.0)], 0.0, coflow_id=0),
            Coflow([Flow(1, 2, 4.0)], 1.234, coflow_id=1),
            Coflow([Flow(3, 0, 2.0)], 1.234, coflow_id=2),
        ]
        _, _, _, lazy, _ = self._pair(
            4, coflows, FairSharingScheduler,
            [k * 0.05 for k in range(1, 300)],
        )
        assert lazy > 0

    def test_watchdog_report_sees_drained_volumes(self):
        coflows = [
            Coflow([Flow(0, 1, 5.0), Flow(2, 1, 3.0)], 0.0, coflow_id=0),
            Coflow([Flow(1, 2, 40.0)], 0.5, coflow_id=1),
        ]
        queued_at_trip = []
        for budget in range(30, 400, 23):
            reports = []
            for batch in (False, True):
                with _lazy_drains() as flushes:
                    with pytest.raises(BudgetExceeded) as err:
                        _run(
                            3, coflows, "fair", batch_events=batch,
                            source=_WakeSource(
                                [k * 0.01 for k in range(1, 5000)]
                            ),
                            max_epochs=budget,
                        )
                reports.append(err.value.report["context"])
            queued_at_trip.append(flushes[-1])
            assert reports[0] == reports[1]
        assert any(queued_at_trip)


@contextlib.contextmanager
def _dropped_bytes():
    """Record, per coflow, the bytes left in the flows the loop drops
    from the fabric (a completed flow stops below ``_VOLUME_EPS``)."""
    dropped = collections.Counter()
    keep = recovery.ActiveFlows.keep

    def recording(self, mask):
        for cid, left in zip(self.cids[~mask], self.remaining[~mask]):
            dropped[int(cid)] += float(left)
        keep(self, mask)

    recovery.ActiveFlows.keep = recording
    try:
        yield dropped
    finally:
        recovery.ActiveFlows.keep = keep


def _conserving(cls, dropped):
    """``cls`` asserting, at every ``allocate``, that each admitted
    coflow's ``sent_bytes`` plus the remaining bytes of its flows (active
    ones from the context, dropped ones from ``dropped``) is its volume."""

    class Conserving(cls):
        def reset(self):
            super().reset()
            self.checked = 0

        def allocate(self, ctx):
            left = collections.Counter(dropped)
            for cid, r in zip(ctx.coflow_ids.tolist(), ctx.remaining):
                left[cid] += float(r)
            for cid in left:
                _assert_conserved(ctx.progress[cid], left[cid])
                self.checked += 1
            self.progress = ctx.progress
            return super().allocate(ctx)

    return Conserving


def _assert_conserved(progress, left):
    volume = progress.total_volume
    assert progress.sent_bytes + left == pytest.approx(volume, rel=1e-9)


class TestEpochJournal:
    """The journal's two halves stay paired: whenever a scheduler reads
    the state, and at the end of the run, every coflow's ``sent_bytes``
    plus its flows' remaining bytes is its volume -- through reuse
    streaks past the journal's cap and admissions mid-streak.  Eager
    reuse epochs share one settle too."""

    def _run(self, n_ports, coflows, scheduler, times):
        with _dropped_bytes() as dropped:
            cls = type(REUSING[scheduler]())
            sched = _conserving(cls, dropped)()
            with _lazy_drains() as tails:
                result = _run(
                    n_ports, coflows, sched, source=_WakeSource(times)
                )
        assert sched.checked > 0
        assert len(result.completion_times) == len(coflows)
        for c in coflows:
            _assert_conserved(sched.progress[c.coflow_id],
                              dropped[c.coflow_id])
        return tails

    @settings(max_examples=20, deadline=None)
    @given(
        workloads(),
        st.sampled_from(sorted(REUSING)),
        st.floats(0.005, 0.05),
    )
    def test_polling_streaks(self, wl, scheduler, period):
        n_ports, coflows = wl
        self._run(
            n_ports, coflows, scheduler,
            [k * period for k in range(1, int(30 / period))],
        )

    @pytest.mark.parametrize("scheduler", ["fair", "sequential"])
    def test_streaks_past_the_cap_with_admissions(self, scheduler):
        coflows = [
            Coflow([Flow(0, 1, 5.0), Flow(2, 3, 9.0)], 0.0, coflow_id=0),
            Coflow([Flow(1, 2, 4.0)], 1.234, coflow_id=1),
            Coflow([Flow(3, 0, 2.0), Flow(1, 0, 1.5)], 3.21, coflow_id=2),
        ]
        tails = self._run(
            4, coflows, scheduler, [k * 0.01 for k in range(1, 3000)]
        )
        assert max(tails) == _MAX_QUEUED_CREDITS

    def test_eager_reuse_epochs_settle_together(self, monkeypatch):
        # A Tracer's residual samples make every epoch eager; fair's
        # reuse epochs still journal their credit up to the cap.
        lengths = []
        settle = simulator._EpochLoop.settle

        def recording(loop):
            lengths.append(len(loop.journal))
            settle(loop)

        monkeypatch.setattr(simulator._EpochLoop, "settle", recording)
        coflows = [
            Coflow([Flow(0, 1, 5.0), Flow(2, 1, 3.0)], 0.0, coflow_id=0),
            Coflow([Flow(1, 2, 4.0)], 0.5, coflow_id=1),
        ]
        _run(3, coflows, "fair", source=_PollingSource(0.01, 20.0),
             instrumentation=Tracer())
        assert max(lengths) == _MAX_QUEUED_CREDITS


class TestBatchEventsBitIdentity:
    """``batch_events=True`` must be a pure performance change.

    The event-horizon path reuses rate allocations across epochs where
    the fleet, fabric and validity horizon provably allow it; these
    properties pin that the reuse never changes a single output float,
    epoch count or failure record relative to ``batch_events=False``.
    """

    @settings(max_examples=30, deadline=None)
    @given(workloads(), st.sampled_from(SCHEDULERS))
    def test_plain(self, wl, scheduler):
        n_ports, coflows = wl
        off = _run(n_ports, coflows, scheduler, batch_events=False)
        on = _run(n_ports, coflows, scheduler, batch_events=True)
        assert _fingerprint(off) == _fingerprint(on)

    @settings(max_examples=20, deadline=None)
    @given(
        workloads(),
        st.sampled_from(("sebf", "fair", "wss")),
        st.integers(0, 2),
        st.floats(0.5, 20.0),
        st.floats(1.0, 30.0),
        st.sampled_from(("retry", "replan", "abort")),
    )
    def test_chaos_schedule(
        self, wl, scheduler, port, fail_at, downtime, policy
    ):
        n_ports, coflows = wl
        events = [
            RateEvent.failure(fail_at, port),
            RateEvent.recovery(
                fail_at + downtime, port, egress=1.0, ingress=1.0
            ),
        ]
        off = _run(
            n_ports, coflows, scheduler,
            batch_events=False,
            dynamics=FabricDynamics(list(events)), recovery=policy,
        )
        on = _run(
            n_ports, coflows, scheduler,
            batch_events=True,
            dynamics=FabricDynamics(list(events)), recovery=policy,
        )
        assert _fingerprint(off) == _fingerprint(on)

    @settings(max_examples=30, deadline=None)
    @given(workloads())
    def test_fair_small_fills(self, wl):
        """At most ``_SCALAR_MAX`` active flows, unit weights: every
        ``fair`` fill runs on the scalar kernel, and each one is also
        checked against the oracle."""
        n_ports, coflows = wl
        assert sum(c.width for c in coflows) <= _SCALAR_MAX
        sched = _OracleChecked("fair", {})
        off = _run(n_ports, coflows, sched, batch_events=False)
        on = _run(n_ports, coflows, "fair", batch_events=True)
        assert sched.checked > 0
        assert _fingerprint(off) == _fingerprint(on)

    @settings(max_examples=30, deadline=None)
    @given(sourced_workloads(), st.sampled_from(SCHEDULERS))
    def test_scripted_source(self, wl, scheduler):
        n_ports, initial, scripted = wl
        runs = []
        for batch in (False, True):
            src = _ScriptedSource(
                [
                    (t, Coflow(list(c.flows), c.arrival_time, c.coflow_id))
                    for t, c in scripted
                ]
            )
            runs.append(
                _run(n_ports, initial, scheduler,
                     batch_events=batch, source=src)
            )
        assert _fingerprint(runs[0]) == _fingerprint(runs[1])

    @settings(max_examples=15, deadline=None)
    @given(
        sourced_workloads(),
        st.sampled_from(("sebf", "dclas", "fair")),
        st.integers(0, 2),
        st.floats(0.5, 20.0),
    )
    def test_scripted_source_with_chaos(self, wl, scheduler, port, fail_at):
        n_ports, initial, scripted = wl
        events = [
            RateEvent.failure(fail_at, port),
            RateEvent.recovery(
                fail_at + 5.0, port, egress=1.0, ingress=1.0
            ),
        ]
        runs = []
        for batch in (False, True):
            src = _ScriptedSource(
                [
                    (t, Coflow(list(c.flows), c.arrival_time, c.coflow_id))
                    for t, c in scripted
                ]
            )
            runs.append(
                _run(
                    n_ports, initial, scheduler,
                    batch_events=batch, source=src,
                    dynamics=FabricDynamics(list(events)),
                    recovery="retry",
                )
            )
        assert _fingerprint(runs[0]) == _fingerprint(runs[1])


@st.composite
def kernel_cases(draw):
    n_ports = draw(st.integers(2, 8))
    n_flows = draw(st.integers(1, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    srcs = rng.integers(0, n_ports, size=n_flows)
    dsts = rng.integers(0, n_ports, size=n_flows)
    remaining = rng.uniform(1e-3, 10.0, size=n_flows)
    res_out = rng.uniform(0.0, 2.0, size=n_ports)
    res_in = rng.uniform(0.0, 2.0, size=n_ports)
    k = draw(st.integers(1, n_flows))
    subset = np.sort(rng.choice(n_flows, size=k, replace=False))
    return n_ports, srcs, dsts, remaining, res_out, res_in, subset


@st.composite
def fill_cases(draw, n_flows=st.integers(1, 120)):
    """A waterfill input built to hit the cell-space kernel's edges.

    Up to 64 ports; residuals drawn per cell from uniform values, zero
    capacity, residuals at or below the 1e-9 saturation threshold and
    dyadic values that make several cells saturate in one iteration;
    parallel flows (repeated port pairs); any subset size (empty only
    when there are no flows).
    """
    n_ports = draw(st.integers(1, 64))
    n_flows = draw(n_flows)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    srcs = rng.integers(0, n_ports, size=n_flows)
    dsts = rng.integers(0, n_ports, size=n_flows)
    n_dup = draw(st.integers(0, n_flows // 2))
    if n_dup:
        src_of = rng.integers(0, n_flows, size=n_dup)
        dst_of = rng.integers(0, n_flows, size=n_dup)
        srcs[dst_of] = srcs[src_of]
        dsts[dst_of] = dsts[src_of]
    kinds = [
        rng.uniform(0.0, 2.0, size=2 * n_ports),
        np.zeros(2 * n_ports),
        rng.choice([1e-12, 1e-10, 5e-10, 1e-9], size=2 * n_ports),
        rng.integers(1, 9, size=2 * n_ports) / 4.0,
    ]
    mix = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    pick = rng.choice(mix, size=2 * n_ports)
    res = np.choose(pick, kinds)
    k = draw(st.integers(min(1, n_flows), n_flows))
    subset = np.sort(rng.choice(n_flows, size=k, replace=False))
    return srcs, dsts, res[:n_ports], res[n_ports:], subset


#: All-flows fill sizes on both sides of the scalar kernel's threshold.
AROUND_SCALAR_MAX = st.sampled_from(
    (0, 1, _SCALAR_MAX, _SCALAR_MAX + 1)
) | st.integers(0, 2 * _SCALAR_MAX)


class TestKernelProperties:
    """Rates and the residual left behind match the oracle bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(fill_cases(), st.booleans())
    def test_maxmin_subset_exact(self, case, use_subset):
        srcs, dsts, res_out, res_in, subset = case
        assert_fill_matches_reference(
            srcs, dsts, res_out, res_in,
            subset=subset if use_subset else None,
            rates=np.zeros(srcs.shape[0]), zero_rates=True,
        )

    @settings(max_examples=120, deadline=None)
    @given(fill_cases(AROUND_SCALAR_MAX))
    def test_maxmin_all_flows_zero_start_exact(self, case):
        """``fair``'s call: every flow, rates from zero (``rates=None``);
        up to ``_SCALAR_MAX`` flows run on the scalar kernel, more in
        cell space."""
        srcs, dsts, res_out, res_in, _ = case
        assert_fill_matches_reference(srcs, dsts, res_out, res_in)

    @settings(max_examples=80, deadline=None)
    @given(fill_cases(), st.booleans(), st.integers(0, 2 ** 16), st.booleans())
    def test_maxmin_backfill_exact(self, case, use_subset, rseed, dyadic):
        """Non-zero starting rates, as after a MADD priority pass."""
        srcs, dsts, res_out, res_in, subset = case
        rng = np.random.default_rng(rseed)
        n = srcs.shape[0]
        if dyadic:
            rates = rng.integers(0, 4, size=n) / 8.0
        else:
            rates = rng.uniform(0.0, 0.3, size=n) * (rng.random(n) < 0.7)
        assert_fill_matches_reference(
            srcs, dsts, res_out, res_in,
            subset=subset if use_subset else None, rates=rates,
        )

    @settings(max_examples=40, deadline=None)
    @given(fill_cases(), st.integers(0, 2 ** 16))
    def test_maxmin_weighted_exact(self, case, wseed):
        srcs, dsts, res_out, res_in, subset = case
        weights = np.random.default_rng(wseed).uniform(
            0.1, 5.0, size=srcs.shape[0]
        )
        assert_fill_matches_reference(
            srcs, dsts, res_out, res_in, subset=subset, weights=weights,
        )

    @settings(max_examples=60, deadline=None)
    @given(kernel_cases())
    def test_madd_exact(self, case):
        n_ports, srcs, dsts, remaining, res_out, res_in, subset = case
        rates_ref = np.zeros(srcs.shape[0])
        ok_ref = madd_rates_reference(
            srcs, dsts, remaining, res_out.copy(), res_in.copy(),
            subset, rates_ref,
        )
        res = np.concatenate((res_out.copy(), res_in.copy()))
        rates_fast = np.zeros(srcs.shape[0])
        ok_fast = madd_rates_fast(
            srcs, dsts + n_ports, remaining, res, subset, rates_fast
        )
        assert ok_ref == ok_fast
        assert (rates_ref == rates_fast).all()
