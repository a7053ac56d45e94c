"""Stall-detector safety in service mode.

Overloaded ``ccf serve`` runs legitimately produce zero-duration epochs:
an admission controller's deferral wakeups can land several releases on
the same instant, and each re-poll of the :class:`ArrivalSource` at an
unchanged clock is one more epoch without clock progress.  The stall
watchdog must treat those as the short bursts they are -- the counter
resets on every epoch that advances the clock -- and only trip on an
unbounded streak (a genuine spin).
"""

import pytest

from repro.core.resilience import Backoff, StallError
from repro.network.fabric import Fabric
from repro.network.flow import Coflow, Flow
from repro.network.schedulers import make_scheduler
from repro.network.simulator import CoflowSimulator
from repro.obs.metrics import MetricsRegistry
from repro.service.admission import (
    AdmissionController,
    make_admission_policy,
)
from repro.service.arrivals import (
    ArrivalConfig,
    ArrivalStream,
    rate_for_load,
)


class _JitterySource:
    """Scripted source pinning the epoch horizon at ``now`` in bursts.

    Every ``burst``-th ``next_time`` call yields real progress
    (``now + 0.5``); the calls in between return ``now``, which clamps
    the next epoch's duration to zero -- the worst-case shape of
    same-instant deferral wakeups.  Past ``horizon`` the source reports
    exhausted so the run can drain.
    """

    def __init__(self, horizon: float, burst: int) -> None:
        self.horizon = horizon
        self.burst = burst
        self.calls = 0

    def next_time(self, now):
        if now >= self.horizon:
            return None
        self.calls += 1
        if self.calls % self.burst == 0:
            return now + 0.5
        return now

    def take(self, now, slack):
        return []


def _run_with_source(source, *, stall_epochs):
    sim = CoflowSimulator(
        Fabric(n_ports=2, rate=1.0),
        make_scheduler("fair"),
        stall_epochs=stall_epochs,
    )
    return sim.run(
        [Coflow([Flow(0, 1, 5.0)], 0.0, coflow_id=0)], source=source
    )


class TestZeroDurationBursts:
    def test_bursts_below_the_limit_never_trip(self):
        # ~hundreds of zero-duration epochs in total, but every burst is
        # far shorter than the limit and each 0.5 s hop resets the
        # counter: the run must complete.
        src = _JitterySource(horizon=4.0, burst=16)
        res = _run_with_source(src, stall_epochs=64)
        assert res.ccts == {0: pytest.approx(5.0)}
        assert src.calls > 64  # the watchdog saw more polls than its limit

    def test_unbounded_streak_still_trips(self):
        # The same shape without the periodic hop is a genuine spin and
        # must abort rather than loop forever.
        src = _JitterySource(horizon=4.0, burst=10**9)
        with pytest.raises(StallError, match="stalled"):
            _run_with_source(src, stall_epochs=64)

    def test_deferred_past_arrival_releases_are_safe(self):
        # Releases whose arrival_time lies in the past (deferred
        # admissions) join mid-burst without tripping the detector.
        class _DeferringSource(_JitterySource):
            def __init__(self):
                super().__init__(horizon=4.0, burst=16)
                self.released = False

            def take(self, now, slack):
                if not self.released and now >= 1.0:
                    self.released = True
                    return [Coflow([Flow(1, 0, 2.0)], 0.25, coflow_id=1)]
                return []

        src = _DeferringSource()
        res = _run_with_source(src, stall_epochs=64)
        assert set(res.ccts) == {0, 1}
        # CCT charges the queueing delay back to the original arrival.
        assert res.ccts[1] >= 2.0


class TestOverloadedServiceStallSafety:
    def test_bounded_queue_overload_completes_with_tight_budget(self):
        # A deterministic overloaded bounded-queue scenario: deferral
        # re-polls dominate the epoch count (the event-horizon batching
        # workload), yet the run finishes under a stall budget two
        # orders below the default.
        cfg = ArrivalConfig(
            n_ports=8, users=20, max_arrivals=60, seed=11,
            size_mix="facebook",
        )
        # 2x overload, the same wiring ``run_service`` uses.
        fabric = Fabric(n_ports=8, rate=rate_for_load(cfg, 2.0))
        policy = make_admission_policy(
            "bounded-queue",
            watermark_s=5.0,
            queue_limit=64,
            backoff=Backoff(
                max_attempts=60, base_delay=0.1, multiplier=1.2,
                max_delay=1.0, jitter=0.1,
            ),
        )
        controller = AdmissionController(
            ArrivalStream(cfg), policy, fabric, metrics=MetricsRegistry()
        )
        sim = CoflowSimulator(fabric, make_scheduler("fair"), stall_epochs=64)
        res = sim.run(
            [],
            source=controller,
            injector=controller.record_completion,
            on_abort=controller.record_abort,
        )
        assert controller.arrivals == 60
        assert controller.admitted + controller.shed == 60
        assert controller.completed == controller.admitted > 0
        assert controller.deferrals > 0
        assert res.n_epochs > controller.admitted  # re-polls dominate
