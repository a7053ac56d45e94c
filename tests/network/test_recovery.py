"""Tests for the failure-injection and flow-recovery subsystem."""

import numpy as np
import pytest

from repro.network.dynamics import FabricDynamics, RateEvent
from repro.network.fabric import Fabric
from repro.network.flow import Coflow, Flow
from repro.network.recovery import (
    AbortPolicy,
    ReplanPolicy,
    RetryPolicy,
    make_recovery_policy,
)
from repro.network.schedulers import make_scheduler
from repro.network.simulator import CoflowSimulator


def simulate(coflows, dynamics, recovery, *, n_ports=4, rate=1.0,
             scheduler="sebf"):
    fab = Fabric(n_ports=n_ports, rate=rate)
    sim = CoflowSimulator(
        fab, make_scheduler(scheduler), dynamics=dynamics, recovery=recovery
    )
    return sim.run(coflows)


def shuffle_into(dst, volume=10.0, srcs=(0, 1, 2)):
    return Coflow([Flow(s, dst, volume) for s in srcs])


class TestPolicyFactory:
    def test_names(self):
        assert isinstance(make_recovery_policy("abort"), AbortPolicy)
        assert isinstance(make_recovery_policy("retry"), RetryPolicy)
        assert isinstance(make_recovery_policy("replan"), ReplanPolicy)
        with pytest.raises(ValueError, match="unknown recovery policy"):
            make_recovery_policy("hope")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(lost_progress_fraction=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)


class TestAbort:
    def test_coflow_fails_and_run_completes(self):
        cfs = [shuffle_into(3), Coflow([Flow(0, 1, 6.0)], coflow_id=7)]
        dyn = FabricDynamics.fail(
            time=2.0, ports=[3], fabric=Fabric(n_ports=4, rate=1.0)
        )
        res = simulate(cfs, dyn, "abort")
        assert res.failed_coflows == {0: 2.0}
        assert 0 not in res.ccts
        # The unaffected coflow still completes normally.
        assert res.ccts[7] == pytest.approx(6.0)
        kinds = [r.kind for r in res.failures]
        assert "port_failed" in kinds and "abort" in kinds

    def test_abort_counts_wasted_bytes(self):
        res = simulate(
            [shuffle_into(3)],
            FabricDynamics.fail(
                time=2.0, ports=[3], fabric=Fabric(n_ports=4, rate=1.0)
            ),
            "abort",
        )
        # Port 3 ingested 2 seconds at rate 1 before dying.
        assert res.bytes_lost == pytest.approx(2.0)


class TestRetry:
    def test_restarts_after_recovery_full_loss(self):
        # Single flow 0->1 of 10 bytes; port 1 dies at t=2 (2 bytes in),
        # recovers at t=8.  Full progress loss: 10 bytes from scratch.
        cf = Coflow([Flow(0, 1, 10.0)])
        dyn = FabricDynamics.fail(
            time=2.0, ports=[1], fabric=Fabric(n_ports=2, rate=1.0),
            recover_at=8.0,
        )
        res = simulate(
            [cf], dyn, RetryPolicy(lost_progress_fraction=1.0), n_ports=2
        )
        assert res.ccts[0] == pytest.approx(18.0)
        assert res.bytes_lost == pytest.approx(2.0)
        assert not res.failed_coflows

    def test_restarts_after_recovery_no_loss(self):
        cf = Coflow([Flow(0, 1, 10.0)])
        dyn = FabricDynamics.fail(
            time=2.0, ports=[1], fabric=Fabric(n_ports=2, rate=1.0),
            recover_at=8.0,
        )
        res = simulate(
            [cf], dyn, RetryPolicy(lost_progress_fraction=0.0), n_ports=2
        )
        # 2 delivered + 6 down + 8 remaining.
        assert res.ccts[0] == pytest.approx(16.0)
        assert res.bytes_lost == pytest.approx(0.0)

    def test_exponential_backoff_delays_restart(self):
        cf = Coflow([Flow(0, 1, 10.0)])
        fab = Fabric(n_ports=2, rate=1.0)
        dyn = FabricDynamics.fail(time=2.0, ports=[1], fabric=fab,
                                  recover_at=4.0)
        res = simulate(
            [cf],
            dyn,
            RetryPolicy(lost_progress_fraction=0.0, backoff_base=3.0),
            n_ports=2,
        )
        # First stranding: backoff 3 * 2**0 = 3s from t=2 -> resume at
        # max(recovery=4, 5) = 5; 8 bytes remain -> done at 13.
        assert res.ccts[0] == pytest.approx(13.0)
        resumes = [r for r in res.failures if r.kind == "resume"]
        assert resumes and resumes[0].time == pytest.approx(5.0)

    def test_unrecoverable_without_repair(self):
        cf = shuffle_into(3)
        dyn = FabricDynamics.fail(
            time=2.0, ports=[3], fabric=Fabric(n_ports=4, rate=1.0)
        )
        res = simulate([cf], dyn, "retry")
        assert res.failed_coflows == {0: 2.0}
        assert any(r.kind == "unrecoverable" for r in res.failures)

    def test_unrecoverable_abort_is_traced_and_called_back(self):
        # Same scenario, traced: the abort of parked flows no recovery
        # event will ever resume logs, emits and calls back like any other.
        from repro.core.noise import NoisyEstimates
        from repro.obs import Tracer

        dyn = FabricDynamics.fail(
            time=2.0, ports=[3], fabric=Fabric(n_ports=4, rate=1.0)
        )
        tracer = Tracer()
        sim = CoflowSimulator(
            Fabric(n_ports=4, rate=1.0),
            make_scheduler("sebf"),
            dynamics=dyn,
            recovery="retry",
            estimate_noise=NoisyEstimates(sigma=0.4, seed=3),
            instrumentation=tracer,
        )
        aborts = []
        res = sim.run(
            [shuffle_into(3)],
            on_abort=lambda cid, now: aborts.append((cid, now)) or [],
        )
        assert res.failed_coflows == {0: 2.0}
        assert aborts == [(0, 2.0)]
        assert sim._noise_factors == {}
        kinds = [
            (e["kind"], e.get("failure_kind"), e.get("cid"), e["t"])
            for e in tracer.events
        ]
        unrecoverable = kinds.index(("failure", "unrecoverable", 0, 2.0))
        abort = kinds.index(("coflow_abort", None, 0, 2.0))
        assert unrecoverable < abort

    def test_repeated_failures_increase_attempts(self):
        # Port 1 dies twice; flow must restart twice, backing off longer.
        cf = Coflow([Flow(0, 1, 10.0)])
        fab = Fabric(n_ports=2, rate=1.0)
        dyn = FabricDynamics(
            [
                RateEvent.failure(2.0, 1),
                RateEvent.recovery(3.0, 1, egress=1.0, ingress=1.0),
                RateEvent.failure(4.0, 1),
                RateEvent.recovery(5.0, 1, egress=1.0, ingress=1.0),
            ]
        )
        res = simulate(
            [cf],
            dyn,
            RetryPolicy(lost_progress_fraction=0.0, backoff_base=1.0),
            n_ports=2,
        )
        resumes = [r for r in res.failures if r.kind == "resume"]
        assert len(resumes) == 2
        # Second stranding backs off 1 * 2**1 = 2s from t=4 -> resume 6.
        assert resumes[1].time == pytest.approx(6.0)
        assert not res.failed_coflows


class TestReplan:
    def test_chunk_moves_as_one_unit(self):
        # Three sources feed the partition on port 3; after replan the
        # whole chunk must land on ONE surviving node.
        cf = shuffle_into(3)
        dyn = FabricDynamics.fail(
            time=2.0, ports=[3], fabric=Fabric(n_ports=4, rate=1.0),
            recover_at=50.0,
        )
        res = simulate([cf], dyn, "replan")
        # New destination ingests 20 bytes (one piece stays local).
        assert res.ccts[0] == pytest.approx(22.0)
        summary = res.failure_summary()
        assert summary["reroutes"] == 2
        assert not res.failed_coflows

    def test_replan_without_recovery_event_still_completes(self):
        cf = shuffle_into(3)
        dyn = FabricDynamics.fail(
            time=2.0, ports=[3], fabric=Fabric(n_ports=4, rate=1.0)
        )
        res = simulate([cf], dyn, "replan")
        assert 0 in res.ccts and not res.failed_coflows

    def test_local_delivery_completes_coflow(self):
        # Only flow goes 0->1; when port 1 dies the only survivor is the
        # source itself, so the chunk stays local and the coflow is done.
        cf = Coflow([Flow(0, 1, 10.0)])
        dyn = FabricDynamics.fail(
            time=2.0, ports=[1], fabric=Fabric(n_ports=2, rate=1.0)
        )
        res = simulate([cf], dyn, "replan", n_ports=2)
        assert res.ccts[0] == pytest.approx(2.0)
        assert any(r.kind == "local_delivery" for r in res.failures)

    def test_source_failure_falls_back_to_retry(self):
        cf = Coflow([Flow(0, 1, 10.0)])
        dyn = FabricDynamics.fail(
            time=2.0, ports=[0], fabric=Fabric(n_ports=2, rate=1.0),
            recover_at=5.0,
        )
        res = simulate(
            [cf],
            dyn,
            ReplanPolicy(lost_progress_fraction=0.0),
            n_ports=2,
        )
        # Data lives on dead port 0: wait for it, resume with 8 left.
        assert res.ccts[0] == pytest.approx(13.0)
        assert any(r.kind == "suspend" for r in res.failures)

    def test_replan_beats_retry_with_full_progress_loss(self):
        # Acceptance criterion: on the reference scenario (a shuffle into
        # a port that dies mid-run and recovers late) replanning chunks
        # onto survivors yields strictly lower average CCT than waiting
        # and restarting from scratch.
        fab = Fabric(n_ports=6, rate=1.0)
        coflows = [
            Coflow([Flow(s, 5, 8.0) for s in range(4)], coflow_id=0),
            Coflow([Flow(0, 1, 4.0), Flow(2, 5, 6.0)], coflow_id=1,
                   arrival_time=1.0),
        ]

        def run(policy):
            dyn = FabricDynamics.fail(
                time=2.0, ports=[5], fabric=fab, recover_at=60.0
            )
            return simulate(coflows, dyn, policy, n_ports=6)

        res_retry = run(RetryPolicy(lost_progress_fraction=1.0))
        res_replan = run(ReplanPolicy(lost_progress_fraction=1.0))
        assert not res_retry.failed_coflows
        assert not res_replan.failed_coflows
        assert res_replan.average_cct < res_retry.average_cct

    def test_replan_spreads_chunks_across_survivors(self):
        # Two separate coflows lose their (distinct) partitions on port
        # 4; the planner should not pile both onto the same survivor.
        fab = Fabric(n_ports=5, rate=1.0)
        cfs = [
            Coflow([Flow(0, 4, 10.0), Flow(1, 4, 10.0)], coflow_id=0),
            Coflow([Flow(2, 4, 10.0), Flow(3, 4, 10.0)], coflow_id=1),
        ]
        dyn = FabricDynamics.fail(time=1.0, ports=[4], fabric=fab)
        res = simulate(cfs, dyn, "replan", n_ports=5)
        assert set(res.ccts) == {0, 1}
        # Makespan stays near one chunk's transfer time; piling both
        # chunks on one receiver would roughly double it.
        assert res.makespan < 16.0


class TestFailureLog:
    def test_structure(self):
        cf = shuffle_into(3)
        dyn = FabricDynamics.fail(
            time=2.0, ports=[3], fabric=Fabric(n_ports=4, rate=1.0),
            recover_at=9.0,
        )
        res = simulate([cf], dyn, RetryPolicy(lost_progress_fraction=1.0))
        kinds = [r.kind for r in res.failures]
        assert kinds.count("port_failed") == 1
        assert kinds.count("port_recovered") == 1
        fail = next(r for r in res.failures if r.kind == "port_failed")
        assert fail.time == pytest.approx(2.0) and fail.port == 3
        susp = next(r for r in res.failures if r.kind == "suspend")
        assert susp.coflow_id == 0 and susp.flows == 3
        assert susp.bytes_lost == pytest.approx(2.0)  # 2s of ingest wasted
        resume = next(r for r in res.failures if r.kind == "resume")
        assert resume.time == pytest.approx(9.0) and resume.flows == 3

    def test_clean_run_has_empty_log(self):
        res = simulate([shuffle_into(3)], None, None)
        assert res.failures == [] and res.failed_coflows == {}
        assert res.bytes_lost == 0.0 and res.n_port_failures == 0

    def test_summary_counters(self):
        cf = shuffle_into(3)
        dyn = FabricDynamics.fail(
            time=2.0, ports=[3], fabric=Fabric(n_ports=4, rate=1.0),
            recover_at=50.0,
        )
        s = simulate([cf], dyn, "replan").failure_summary()
        assert s["port_failures"] == 1
        assert s["reroutes"] + s["restarts"] >= 1
        assert s["aborted_coflows"] == 0
        assert s["bytes_lost"] == pytest.approx(2.0)


class TestAllPoliciesComplete:
    """Acceptance: a mid-run port failure deadlocks no policy."""

    @pytest.mark.parametrize("policy", ["abort", "retry", "replan"])
    @pytest.mark.parametrize("scheduler", ["fair", "sebf", "dclas"])
    def test_completes(self, policy, scheduler):
        fab = Fabric(n_ports=4, rate=1.0)
        cfs = [
            shuffle_into(3),
            Coflow([Flow(1, 2, 5.0)], coflow_id=9, arrival_time=0.5),
        ]
        dyn = FabricDynamics.fail(
            time=1.5, ports=[3], fabric=fab, recover_at=12.0
        )
        res = simulate(cfs, dyn, policy, scheduler=scheduler)
        # Every coflow either completed or was explicitly failed.
        assert set(res.ccts) | set(res.failed_coflows) == {0, 9}
        assert 9 in res.ccts  # untouched coflow always completes
