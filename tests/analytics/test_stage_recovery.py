"""Job-level fault tolerance: stage policies on the DAG executor.

Covers the acceptance scenario of the fault-tolerance tentpole: a DAG
run with an injected node failure under ``replan-stage`` completes with
the full volume delivered, re-executes only the failed stage, and
reports per-stage retry records; the same scenario under ``fail-job``
reports a failed job instead of raising.
"""

import math

import numpy as np
import pytest

from repro.analytics.dag import DAGExecutor, JobDAG
from repro.analytics.stagepolicy import (
    FailJobPolicy,
    ReplanStagePolicy,
    RetryStagePolicy,
    make_stage_policy,
)
from repro.core.model import ShuffleModel
from repro.core.online import OnlineCCF
from repro.network.dynamics import FabricDynamics
from repro.network.fabric import Fabric

N = 4
FAIL_AT = 2.0
DEAD = 3


def shuffle(seed, p=6):
    """A dense shuffle model: every node holds a piece of every partition."""
    rng = np.random.default_rng(seed)
    return ShuffleModel(h=rng.integers(1, 10, size=(N, p)).astype(float), rate=1.0)


def diamond():
    """a, b -> c -> d.  Stage ``a`` is pinned to place partitions on the
    doomed node; ``b`` is pinned to avoid it, so exactly one root stage is
    hit by the failure and "only the failed subtree re-executes" is
    observable."""
    return (
        JobDAG("diamond")
        .add("a", shuffle(1), dest=np.array([0, 1, 2, 3, 3, 0]))
        .add("b", shuffle(2), dest=np.array([0, 1, 2, 0, 1, 2]))
        .add("c", shuffle(3), parents=("a", "b"))
        .add("d", shuffle(4), parents=("c",))
    )


def chain():
    """A sequential two-stage job: ``reduce`` runs after ``map``."""
    return (
        JobDAG("pipeline")
        .add("map", shuffle(5))
        .add("reduce", shuffle(6), parents=("map",))
    )


def ingress_loss(recover_at=None):
    fabric = Fabric(n_ports=N, rate=1.0)
    return FabricDynamics.fail(
        time=FAIL_AT,
        ports=[DEAD],
        fabric=fabric,
        recover_at=recover_at,
        direction="ingress",
    )


class TestStagePolicies:
    def test_registry_and_aliases(self):
        assert isinstance(make_stage_policy("replan"), ReplanStagePolicy)
        assert isinstance(make_stage_policy("retry-stage"), RetryStagePolicy)
        assert isinstance(make_stage_policy("fail"), FailJobPolicy)
        policy = RetryStagePolicy(max_stage_retries=7)
        assert make_stage_policy(policy) is policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="fail-job"):
            make_stage_policy("nope")


class TestReplanRecovery:
    def test_acceptance_scenario(self):
        result = DAGExecutor().run(
            diamond(), dynamics=ingress_loss(), stage_policy="replan-stage"
        )
        # The job completes despite the permanent ingress loss.
        assert result.completed
        s = result.stages
        # Only the failed stage re-executes; the rest run once.
        assert s["a"].attempts == 2
        assert s["b"].attempts == 1
        assert s["c"].attempts == 1
        assert s["d"].attempts == 1
        assert result.total_retries == 1
        assert result.total_replans == 1
        # Per-stage retry records: the aborted attempt is logged on the
        # stage that owned it, with a replan decision event.
        assert s["a"].failures and s["a"].bytes_lost > 0
        assert [e.action for e in s["a"].events] == ["replan"]
        assert not s["b"].events and not s["c"].events

    def test_full_volume_delivered_off_dead_node(self):
        result = DAGExecutor().run(
            diamond(), dynamics=ingress_loss(), stage_policy="replan-stage"
        )
        for name, s in result.stages.items():
            sizes = s.plan.model.partition_sizes
            mass = np.bincount(s.plan.dest, weights=sizes, minlength=N)
            assert mass.sum() == pytest.approx(sizes.sum())
            # Every stage planned or replanned after the failure avoids
            # the dead ingress entirely.
            if name != "b":
                assert mass[DEAD] == pytest.approx(0.0)

    def test_makespan_beats_retry(self):
        dyn = ingress_loss(recover_at=60.0)
        replanned = DAGExecutor().run(
            diamond(), dynamics=dyn, stage_policy="replan-stage"
        )
        retried = DAGExecutor().run(
            diamond(), dynamics=dyn, stage_policy="retry-stage"
        )
        assert replanned.completed and retried.completed
        # Replanning routes around the hole now; retrying waits for the
        # repair, so its makespan includes the outage.
        assert retried.makespan >= 60.0
        assert replanned.makespan < retried.makespan

    def test_full_node_loss_degrades_to_retry(self):
        # direction="both" kills the node's resident source data too, so
        # there is nothing to replan from: the policy must fall back to
        # retrying once the node is repaired.
        fabric = Fabric(n_ports=N, rate=1.0)
        dyn = FabricDynamics.fail(
            time=FAIL_AT, ports=[DEAD], fabric=fabric, recover_at=50.0
        )
        result = DAGExecutor().run(
            diamond(), dynamics=dyn, stage_policy="replan-stage"
        )
        assert result.completed
        assert "retry" in [e.action for e in result.events]
        assert result.total_replans == 0
        assert result.makespan >= 50.0

    def test_chain_replan_completes_with_records(self):
        result = DAGExecutor().run(
            chain(), dynamics=ingress_loss(), stage_policy="replan-stage"
        )
        assert result.completed
        assert result.total_retries >= 1
        assert result.bytes_lost > 0
        assert result.makespan > FAIL_AT


class TestFailJobAndRetry:
    def test_fail_job_reports_instead_of_raising(self):
        result = DAGExecutor().run(
            diamond(), dynamics=ingress_loss(), stage_policy="fail-job"
        )
        assert result.failed and not result.completed
        assert result.failed_stages == ["a"]
        # Descendants of the failed stage never start.
        assert set(result.skipped_stages) == {"c", "d"}
        assert result.stages["c"].plan is None
        assert math.isnan(result.total_retries) is False
        summary = result.failure_summary()
        assert summary["completed"] == 0.0
        assert summary["failed_stages"] == 1

    def test_chain_fail_job_reports_failure(self):
        result = DAGExecutor().run(
            chain(), dynamics=ingress_loss(), stage_policy="fail-job"
        )
        assert result.failed and not result.completed

    def test_retry_waits_out_the_outage(self):
        healthy = DAGExecutor().run(diamond())
        result = DAGExecutor().run(
            diamond(),
            dynamics=ingress_loss(recover_at=40.0),
            stage_policy="retry-stage",
        )
        assert result.completed
        assert result.stages["a"].attempts == 2
        assert result.makespan >= 40.0
        assert result.makespan > healthy.makespan

    def test_retry_without_repair_fails_job(self):
        # The retry policy needs the port back; with no repair scheduled
        # the stage can never rerun, so the job must fail cleanly.
        result = DAGExecutor().run(
            diamond(), dynamics=ingress_loss(), stage_policy="retry-stage"
        )
        assert result.failed
        assert "fail-job" in [e.action for e in result.events]


class TestValidation:
    def test_policy_without_failures_rejected(self):
        with pytest.raises(ValueError, match="failure schedule"):
            DAGExecutor().run(diamond(), stage_policy="replan-stage")

    def test_failures_without_policy_rejected(self):
        with pytest.raises(ValueError, match="stage_policy"):
            DAGExecutor().run(diamond(), dynamics=ingress_loss())


class TestOnlineRecovery:
    def split_model(self):
        # p = n partitions, each split across every node: under the hash
        # strategy node DEAD receives partition DEAD, so an ingress loss
        # always strands receive bytes there.
        rng = np.random.default_rng(7)
        return ShuffleModel(h=rng.uniform(5, 10, size=(N, N)), rate=1.0)

    def test_failure_without_policy_rejected(self):
        online = OnlineCCF(n_nodes=N)
        with pytest.raises(ValueError, match="stage_policy"):
            online.node_failed(1.0, DEAD)

    def test_ingress_loss_replans_receive_side(self):
        online = OnlineCCF(n_nodes=N, stage_policy="replan-stage")
        online.submit(self.split_model(), time=0.0, strategy="hash")
        events = online.node_failed(1.0, DEAD, direction="ingress")
        assert [e.kind for e in events] == ["node_failed", "shuffle_replanned"]
        _, recv = online.residual_loads(1.0)
        assert recv[DEAD] == pytest.approx(0.0)
        assert recv.sum() > 0  # bytes moved, not dropped

    def test_full_loss_parks_then_restarts(self):
        online = OnlineCCF(n_nodes=N, stage_policy="replan-stage")
        online.submit(self.split_model(), time=0.0, strategy="hash")
        events = online.node_failed(1.0, DEAD, direction="both")
        assert "shuffle_parked" in [e.kind for e in events]
        assert online.in_flight(1.0) == []
        events = online.node_recovered(2.0, DEAD)
        assert "shuffle_restarted" in [e.kind for e in events]
        assert online.in_flight(2.0)

    def test_fail_job_drops_shuffle(self):
        online = OnlineCCF(n_nodes=N, stage_policy="fail-job")
        online.submit(self.split_model(), time=0.0, strategy="hash")
        events = online.node_failed(1.0, DEAD, direction="ingress")
        assert "shuffle_failed" in [e.kind for e in events]
        assert online.in_flight(1.0) == []

    def test_submissions_avoid_dead_nodes(self):
        online = OnlineCCF(n_nodes=N, stage_policy="replan-stage")
        online.node_failed(1.0, DEAD)
        plan = online.submit(self.split_model(), time=2.0)
        assert DEAD not in plan.dest
