"""Tests for the admission policies and the controller."""

import pytest

from repro.network.fabric import Fabric
from repro.obs import MetricsRegistry, Tracer
from repro.service.admission import (
    AcceptAll,
    AdmissionController,
    BoundedQueue,
    LoadShedding,
    ServiceState,
    SLOGuard,
    make_admission_policy,
)
from repro.service.arrivals import ArrivalConfig, ArrivalStream


def state(
    *,
    backlog_bytes=0.0,
    capacity=1.0,
    queued=0,
    p95=None,
):
    return ServiceState(
        outstanding_bytes=backlog_bytes,
        capacity=capacity,
        queued=queued,
        recent_p95=p95,
    )


def coflow_of(volume):
    """A one-flow coflow with the given volume (policy rulings only)."""
    from repro.network.flow import Coflow, Flow

    return Coflow(
        flows=[Flow(src=0, dst=1, volume=volume)],
        arrival_time=0.0,
        coflow_id=0,
    )


class TestServiceState:
    def test_backlog_seconds(self):
        assert state(backlog_bytes=10.0, capacity=2.0).backlog_seconds == 5.0

    def test_float_error_clamps_to_zero(self):
        assert state(backlog_bytes=-1e-14).backlog_seconds == 0.0

    def test_dead_fabric_is_infinite_backlog(self):
        s = state(backlog_bytes=1.0, capacity=0.0)
        assert s.backlog_seconds == float("inf")


class TestAcceptAll:
    def test_always_admits(self):
        p = AcceptAll()
        s = state(backlog_bytes=1e18, capacity=1.0, p95=1e9)
        assert p.decide(coflow_of(1e12), s, attempt=99) == ("admit", "")


class TestBoundedQueue:
    def test_admits_below_watermark(self):
        p = BoundedQueue(watermark_s=10.0)
        assert p.decide(coflow_of(1.0), state(backlog_bytes=5.0), 0) == (
            "admit",
            "",
        )

    def test_defers_above_watermark(self):
        p = BoundedQueue(watermark_s=10.0)
        s = state(backlog_bytes=20.0)
        assert p.decide(coflow_of(1.0), s, 0) == ("defer", "backpressure")

    def test_sheds_when_queue_full(self):
        p = BoundedQueue(watermark_s=10.0, queue_limit=4)
        s = state(backlog_bytes=20.0, queued=4)
        assert p.decide(coflow_of(1.0), s, 0) == ("shed", "queue_full")

    def test_sheds_after_retries_exhausted(self):
        p = BoundedQueue(watermark_s=10.0)
        s = state(backlog_bytes=20.0)
        attempt = p.backoff.max_attempts
        assert p.decide(coflow_of(1.0), s, attempt) == (
            "shed",
            "retries_exhausted",
        )

    def test_defer_delay_follows_backoff(self):
        p = BoundedQueue()
        assert p.defer_delay(0) == p.backoff.delay(1)
        # Past the schedule the delay saturates instead of erroring.
        assert p.defer_delay(99) == p.backoff.delay(p.backoff.max_attempts)

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundedQueue(watermark_s=0.0)
        with pytest.raises(ValueError):
            BoundedQueue(queue_limit=0)


class TestLoadShedding:
    def test_admits_below_watermark(self):
        p = LoadShedding(watermark_s=10.0, large_bytes=100.0)
        assert p.decide(coflow_of(1e6), state(backlog_bytes=1.0), 0) == (
            "admit",
            "",
        )

    def test_degraded_band_sheds_only_large(self):
        p = LoadShedding(watermark_s=10.0, large_bytes=100.0, hard_factor=3.0)
        s = state(backlog_bytes=15.0)
        assert p.decide(coflow_of(50.0), s, 0) == ("admit", "degraded")
        assert p.decide(coflow_of(200.0), s, 0) == ("shed", "watermark_large")

    def test_hard_watermark_sheds_everything(self):
        p = LoadShedding(watermark_s=10.0, large_bytes=100.0, hard_factor=3.0)
        s = state(backlog_bytes=30.0)
        assert p.decide(coflow_of(1.0), s, 0) == ("shed", "watermark_hard")

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadShedding(watermark_s=-1.0)
        with pytest.raises(ValueError):
            LoadShedding(large_bytes=0.0)
        with pytest.raises(ValueError):
            LoadShedding(hard_factor=0.5)


class TestSLOGuard:
    def test_healthy_admits(self):
        p = SLOGuard(budget_s=60.0)
        assert p.decide(coflow_of(1.0), state(p95=10.0), 0) == ("admit", "")

    def test_measured_breach_triggers_shedding(self):
        p = SLOGuard(budget_s=60.0)
        s = state(backlog_bytes=30.0, p95=100.0)
        assert p.decide(coflow_of(1.0), s, 0) == ("shed", "slo_breach")

    def test_predictive_breach_needs_no_p95(self):
        # Under overload the CCT window lags; the backlog signal must
        # trip the guard before any measured breach exists.
        p = SLOGuard(budget_s=60.0, backlog_factor=0.4)
        s = state(backlog_bytes=30.0, p95=None)  # 30 s > 0.4 * 60 s
        assert p.decide(coflow_of(1.0), s, 0) == ("shed", "slo_breach")

    def test_latch_and_backlog_governed_recovery(self):
        p = SLOGuard(budget_s=60.0, backlog_factor=0.5, margin=0.9)
        assert p.decide(coflow_of(1.0), state(backlog_bytes=40.0), 0)[0] == (
            "shed"
        )
        # Still above the recovery threshold: keeps shedding even though
        # the (frozen) p95 window shows nothing.
        s = state(backlog_bytes=28.0, p95=None)  # > 0.9 * 30 s
        assert p.decide(coflow_of(1.0), s, 0) == ("shed", "slo_breach")
        # Backlog re-enters with hysteresis: admits again.
        s = state(backlog_bytes=20.0, p95=None)
        assert p.decide(coflow_of(1.0), s, 0) == ("admit", "recovered")

    def test_validation(self):
        with pytest.raises(ValueError):
            SLOGuard(budget_s=0.0)
        with pytest.raises(ValueError):
            SLOGuard(margin=0.0)
        with pytest.raises(ValueError):
            SLOGuard(backlog_factor=1.5)


class TestRegistry:
    def test_make_by_name(self):
        p = make_admission_policy("load-shedding", watermark_s=5.0)
        assert isinstance(p, LoadShedding)
        assert p.watermark_s == 5.0

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown admission policy"):
            make_admission_policy("yolo")


def make_controller(policy, *, rate=10.0, arrivals=20, seed=0, obs=None):
    cfg = ArrivalConfig(
        n_ports=4, users=10, qps_per_user=1.0, max_arrivals=arrivals,
        seed=seed, size_scale=1e-6,
    )
    fabric = Fabric(n_ports=4, rate=rate)
    return AdmissionController(
        ArrivalStream(cfg), policy, fabric,
        metrics=MetricsRegistry(), instrumentation=obs,
    )


class TestAdmissionController:
    def test_accept_all_admits_everything(self):
        c = make_controller(AcceptAll(), arrivals=15)
        released = c.take(1e9, 0.0)
        assert len(released) == 15
        assert c.arrivals == c.admitted == 15
        assert c.shed == c.deferrals == 0
        assert c.next_time(0.0) is None

    def test_backlog_tracks_admissions_and_completions(self):
        c = make_controller(AcceptAll(), rate=1.0, arrivals=5)
        released = c.take(1e9, 0.0)
        total = sum(cf.total_volume for cf in released)
        assert c.state().outstanding_bytes == pytest.approx(total)
        for cf in released:
            c.record_completion(cf.coflow_id, time=10.0)
        assert c.backlog_seconds == 0.0
        assert c.completed == 5
        # Unknown / duplicate completions are ignored, not crashed on.
        c.record_completion(999, time=10.0)
        assert c.completed == 5

    def test_defer_then_release(self):
        # A tiny fabric (capacity 0.004 B/s) so a single admitted coflow
        # pushes the backlog far over a 1-second watermark.
        policy = BoundedQueue(watermark_s=1.0, queue_limit=10)
        c = make_controller(policy, rate=0.001, arrivals=2)
        first = c.take(c.stream.peek_time() + 1e-9, 0.0)
        assert len(first) == 1  # admitted; second arrival not yet due
        released = c.take(1e9, 0.0)  # second arrival: backlog high
        assert released == []
        assert c.deferrals == 1
        assert c.next_time(1e9) is not None  # the deferred release time
        # Drain the backlog; the deferred coflow is admitted on release.
        c.record_completion(first[0].coflow_id, time=1.0)
        released = c.take(2e9, 0.0)
        assert len(released) == 1
        assert c.admitted == 2

    def test_shed_counters_and_metrics(self):
        policy = LoadShedding(watermark_s=1e-9, large_bytes=1e-9)
        c = make_controller(policy, rate=1.0, arrivals=10)
        admitted = c.take(1e9, 0.0)
        # First arrival admits (no backlog yet); everything after is
        # shed at the watermark because nothing ever completes.
        assert len(admitted) == 1
        assert c.shed == 9
        shed_total = sum(
            inst.value
            for name, _kind, _help, family in c.metrics.families()
            if name == "service_shed_total"
            for _labels, inst in family.items()
        )
        assert shed_total == 9

    def test_admission_events_emitted(self):
        tracer = Tracer()
        c = make_controller(AcceptAll(), arrivals=5, obs=tracer)
        c.take(1e9, 0.0)
        rulings = [e for e in tracer.events if e["kind"] == "admission"]
        assert len(rulings) == 5
        assert all(e["decision"] == "admit" for e in rulings)
        assert all(e["policy"] == "accept-all" for e in rulings)

    def test_a_repoll_streak_builds_one_state(self, monkeypatch):
        from repro.core.resilience import Backoff
        from repro.service import admission

        built = []

        class Counting(ServiceState):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(admission, "ServiceState", Counting)
        policy = BoundedQueue(
            watermark_s=1.0, queue_limit=10,
            backoff=Backoff(max_attempts=50, base_delay=0.1, jitter=0.0),
        )
        c = make_controller(policy, rate=0.001, arrivals=2)
        assert len(c.take(c.stream.peek_time() + 1e-9, 0.0)) == 1
        assert len(built) == 1  # the admit ruling's state
        now = c.stream.peek_time()
        for _ in range(20):  # first ruling, then 19 re-polls: all defer
            assert c.take(now, 0.0) == []
            now = c.next_time(now)
        assert c.deferrals == 20
        assert len(built) == 2  # the outstanding bytes moved once

    def test_cached_states_equal_fresh_ones(self):
        # An overloaded drain (2x load, deferral re-polls and completions
        # interleaved): every ruling's state equals one built from the
        # controller's live signals at that moment.
        import numpy as np

        from repro.core.resilience import Backoff
        from repro.network import CoflowSimulator
        from repro.network.schedulers import make_scheduler
        from repro.service.arrivals import rate_for_load

        class Checked(BoundedQueue):
            def decide(self, coflow, state, attempt):
                c = self.controller
                p95 = None
                if len(c._ccts) >= 20:
                    p95 = float(np.percentile(np.asarray(c._ccts), 95))
                assert state == ServiceState(
                    c._outstanding_bytes, c.capacity, len(c._deferred), p95
                )
                self.states.append(state)
                return super().decide(coflow, state, attempt)

        cfg = ArrivalConfig(
            n_ports=8, users=20, max_arrivals=60, seed=11,
            size_mix="facebook",
        )
        fabric = Fabric(n_ports=8, rate=rate_for_load(cfg, 2.0))
        policy = Checked(
            watermark_s=5.0, queue_limit=64,
            backoff=Backoff(max_attempts=60, base_delay=0.1,
                            multiplier=1.2, max_delay=1.0, jitter=0.1),
        )
        policy.states = []
        c = policy.controller = AdmissionController(
            ArrivalStream(cfg), policy, fabric, metrics=MetricsRegistry()
        )
        CoflowSimulator(fabric, make_scheduler("fair")).run(
            [], injector=c.record_completion, source=c
        )
        assert c.deferrals > 0 and c.completed >= 20
        assert len({id(s) for s in policy.states}) < len(policy.states) / 2

    def test_recent_p95_needs_samples(self):
        c = make_controller(AcceptAll(), arrivals=25)
        released = c.take(1e9, 0.0)
        for cf in released[:19]:
            c.record_completion(cf.coflow_id, time=cf.arrival_time + 1.0)
        assert c.recent_p95 is None
        last = released[19]
        c.record_completion(last.coflow_id, time=last.arrival_time + 1.0)
        assert c.recent_p95 == pytest.approx(1.0)
