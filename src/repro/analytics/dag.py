"""DAG-structured analytical jobs: stages with dependencies.

The paper's architecture (Fig. 3) runs a job's operators sequentially;
real engines run a *DAG* -- independent subtrees execute concurrently and
a stage starts the moment its parents finish.  This module executes such
DAGs on the coflow simulator: root stages' coflows are submitted at t=0
and each completion injects the newly-ready children into the running
simulation (the simulator's dynamic-injection hook).  Concurrent stages
naturally contend for the fabric under the chosen discipline.

Job-level fault tolerance
-------------------------
With a :class:`~repro.network.dynamics.FabricDynamics` failure schedule
and a :class:`~repro.analytics.stagepolicy.StagePolicy`, the executor
recovers at **stage** granularity, the way lineage-based engines do:

* A port failure strands a stage's flows; the simulator aborts that
  stage's coflow *attempt* and hands it back through the ``on_abort``
  hook.
* The stage policy decides: fail the whole job (reported, never raised),
  retry the same placement once the dead ports have a scheduled repair,
  or **replan** -- re-run Algorithm 1's step rule over the surviving
  nodes (:func:`repro.core.replan.replan_assignment`) and resubmit
  immediately.  Placements already on surviving nodes are kept: completed
  upstream work acts as a checkpoint, so only the failed stage (and, via
  lineage, its descendants' plans) is touched.
* Every replan is recorded as a row-stochastic move matrix
  (:func:`repro.core.replan.lineage_matrix`).  Descendant stages are
  planned *lazily*, at the moment their parents finish, with their chunk
  matrices pushed through the composed move matrices of their replanned
  ancestors (:func:`repro.core.replan.remap_chunks`) -- children are
  planned against where their inputs actually live, not where the
  original plan intended them to be.  Because a stage only starts after
  all its ancestors completed, lazy planning guarantees every ancestor
  replan is already known when a child is planned.
* Stages are re-executed from scratch on retry/replan (stage-granularity
  recovery re-runs the attempt's full shuffle); partial progress of a
  failed attempt is counted as ``bytes_lost`` in the failure log.

Plan-time estimate noise (:class:`repro.core.noise.NoisyEstimates`) can
be layered on: each stage's assignment is computed from a perturbed /
censored view of its chunk matrix (independently seeded per stage) while
execution charges the true bytes.
"""

from __future__ import annotations

import itertools
import math
import time as _time
from dataclasses import dataclass, field

import numpy as np

from repro.analytics.stagepolicy import (
    FailJob,
    ReplanStage,
    RetryStage,
    StageFailure,
    StageFailureEvent,
    StagePolicy,
    make_stage_policy,
)
from repro.core.framework import CCF, ShuffleWorkload
from repro.core.model import ShuffleModel
from repro.core.noise import NoisyEstimates
from repro.core.plan import ExecutionPlan
from repro.core.replan import lineage_matrix, remap_chunks, replan_assignment
from repro.network.dynamics import FabricDynamics
from repro.network.fabric import Fabric
from repro.network.flow import Coflow
from repro.network.recovery import FailureRecord
from repro.network.schedulers import make_scheduler
from repro.network.simulator import CoflowSimulator

__all__ = ["JobDAG", "DAGExecutor", "DAGResult", "DAGStageResult"]


@dataclass
class _Stage:
    name: str
    workload: ShuffleWorkload | ShuffleModel
    parents: tuple[str, ...]
    dest: np.ndarray | None = None
    min_start: float = 0.0


class JobDAG:
    """A DAG of named stages over ShuffleWorkloads.

    Examples
    --------
    >>> dag = JobDAG("q")                                    # doctest: +SKIP
    >>> dag.add("scan_a", workload_a)                        # doctest: +SKIP
    >>> dag.add("scan_b", workload_b)                        # doctest: +SKIP
    >>> dag.add("join", workload_j, parents=("scan_a", "scan_b"))  # doctest: +SKIP
    """

    def __init__(self, name: str = "dag") -> None:
        self.name = name
        self._stages: dict[str, _Stage] = {}

    def add(
        self,
        name: str,
        workload: ShuffleWorkload | ShuffleModel,
        *,
        parents: tuple[str, ...] = (),
        dest: np.ndarray | None = None,
        min_start: float = 0.0,
    ) -> "JobDAG":
        """Add a stage; parents must already exist (enforces acyclicity).

        Parameters
        ----------
        dest:
            Optional fixed assignment: the stage executes this placement
            instead of one computed by the run's strategy (used e.g. by
            ``ccf simulate`` to re-execute trace coflows verbatim).  A
            fixed placement is still re-routed around dead nodes under a
            replan stage policy.
        min_start:
            Earliest submission time for the stage's coflow (its release
            is still gated on the parents finishing).
        """
        if name in self._stages:
            raise ValueError(f"stage {name!r} already exists")
        for p in parents:
            if p not in self._stages:
                raise ValueError(
                    f"stage {name!r} references unknown parent {p!r} "
                    "(add parents first; this also keeps the graph acyclic)"
                )
        if min_start < 0:
            raise ValueError("min_start must be >= 0")
        self._stages[name] = _Stage(
            name=name,
            workload=workload,
            parents=parents,
            dest=None if dest is None else np.asarray(dest),
            min_start=float(min_start),
        )
        return self

    @property
    def stage_names(self) -> list[str]:
        return list(self._stages)

    def stage(self, name: str) -> _Stage:
        return self._stages[name]

    def roots(self) -> list[str]:
        """Stages with no parents."""
        return [s.name for s in self._stages.values() if not s.parents]

    def children_of(self, name: str) -> list[str]:
        return [
            s.name for s in self._stages.values() if name in s.parents
        ]

    def ancestors(self, name: str) -> set[str]:
        """All transitive parents of ``name`` (excluding itself)."""
        out: set[str] = set()
        frontier = list(self._stages[name].parents)
        while frontier:
            p = frontier.pop()
            if p not in out:
                out.add(p)
                frontier.extend(self._stages[p].parents)
        return out

    def descendants(self, name: str) -> set[str]:
        """All transitive children of ``name`` (excluding itself)."""
        out: set[str] = set()
        frontier = self.children_of(name)
        while frontier:
            c = frontier.pop()
            if c not in out:
                out.add(c)
                frontier.extend(self.children_of(c))
        return out

    def __len__(self) -> int:
        return len(self._stages)


@dataclass
class DAGStageResult:
    """Per-stage outcome of a DAG run.

    ``status`` is ``"completed"``, ``"failed"`` (the stage policy gave up
    on it) or ``"skipped"`` (an ancestor failed / the job was failed
    before the stage became ready; such stages carry no plan).  For a
    failed stage ``completion_time`` records when the job gave up on it.
    """

    name: str
    plan: ExecutionPlan | None
    start_time: float
    completion_time: float
    status: str = "completed"
    attempts: int = 1
    failures: list[FailureRecord] = field(default_factory=list)
    events: list[StageFailureEvent] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.completion_time - self.start_time

    @property
    def bytes_delivered(self) -> float:
        """Network bytes of the stage's *final, successful* shuffle."""
        if self.status != "completed" or self.plan is None:
            return 0.0
        return self.plan.traffic

    @property
    def bytes_lost(self) -> float:
        """Bytes thrown away by this stage's failed attempts."""
        return float(sum(r.bytes_lost for r in self.failures))

    @property
    def retries(self) -> int:
        """Extra executions beyond the first attempt."""
        return max(self.attempts - 1, 0)


@dataclass
class DAGResult:
    """Whole-DAG outcome, including the structured failure/retry log."""

    dag_name: str
    strategy: str
    scheduler: str
    stages: dict[str, DAGStageResult] = field(default_factory=dict)
    events: list[StageFailureEvent] = field(default_factory=list)
    fabric_failures: list[FailureRecord] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        """True when every stage finished successfully."""
        return all(s.status == "completed" for s in self.stages.values())

    @property
    def failed(self) -> bool:
        """True when the job gave up (some stage failed or was skipped)."""
        return not self.completed

    @property
    def failed_stages(self) -> list[str]:
        return [s.name for s in self.stages.values() if s.status == "failed"]

    @property
    def skipped_stages(self) -> list[str]:
        return [s.name for s in self.stages.values() if s.status == "skipped"]

    @property
    def makespan(self) -> float:
        """Completion time of the last successfully-finished stage."""
        done = [
            s.completion_time
            for s in self.stages.values()
            if s.status == "completed"
        ]
        return max(done) if done else 0.0

    @property
    def total_retries(self) -> int:
        """Stage re-executions across the job (retries + replans)."""
        return sum(s.retries for s in self.stages.values())

    @property
    def total_replans(self) -> int:
        """Stage attempts that were replanned onto surviving nodes."""
        return sum(
            1 for e in self.events if e.action == "replan"
        )

    @property
    def bytes_delivered(self) -> float:
        """Network bytes of every completed stage's final shuffle."""
        return float(sum(s.bytes_delivered for s in self.stages.values()))

    @property
    def bytes_lost(self) -> float:
        """Bytes lost to failed attempts across the whole job."""
        return float(
            sum(s.bytes_lost for s in self.stages.values())
        ) + float(sum(r.bytes_lost for r in self.fabric_failures))

    def failure_summary(self) -> dict[str, float]:
        """Aggregate robustness counters for experiment tables."""
        return {
            "completed": float(self.completed),
            "stage_retries": float(self.total_retries),
            "stage_replans": float(self.total_replans),
            "failed_stages": float(len(self.failed_stages)),
            "skipped_stages": float(len(self.skipped_stages)),
            "bytes_lost": self.bytes_lost,
        }

    def critical_path(self) -> list[str]:
        """Stage chain ending at the last completion, following the
        latest-finishing parent at each step (a lower-bound witness)."""
        if not self.stages:
            return []
        last = max(self.stages.values(), key=lambda s: s.completion_time)
        return [last.name]


def _alive_at(
    base: Fabric, dynamics: FabricDynamics | None, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """(egress_alive, ingress_alive) masks at time ``t`` per the schedule."""
    egress = base.egress_rates.copy()
    ingress = base.ingress_rates.copy()
    if dynamics is not None:
        for e in dynamics.events:
            if e.time > t + 1e-12:
                break
            if e.egress is not None:
                egress[e.port] = e.egress
            if e.ingress is not None:
                ingress[e.port] = e.ingress
    return egress > 0, ingress > 0


def _next_recovery(
    dynamics: FabricDynamics, port: int, direction: str, t: float
) -> float | None:
    """Earliest event after ``t`` restoring ``direction`` of ``port``."""
    for e in dynamics.events:
        if e.time <= t + 1e-12 or e.port != port:
            continue
        rate = e.egress if direction == "egress" else e.ingress
        if rate is not None and rate > 0:
            return e.time
    return None


class DAGExecutor:
    """Plan and simulate a JobDAG end to end.

    Parameters
    ----------
    ccf:
        Framework used to plan every stage.
    scheduler:
        Simulator discipline name the concurrent coflows contend under.
    estimate_noise:
        Optional scheduler-view noise forwarded to the simulator (the
        *discipline* sees perturbed remaining volumes; distinct from the
        plan-time ``noise`` argument of :meth:`run`).
    """

    def __init__(
        self,
        ccf: CCF | None = None,
        *,
        scheduler: str = "sebf",
        estimate_noise: NoisyEstimates | None = None,
    ) -> None:
        self.ccf = ccf or CCF()
        self.scheduler_name = scheduler
        self.estimate_noise = estimate_noise

    def run(
        self,
        dag: JobDAG,
        *,
        strategy: str = "ccf",
        dynamics: FabricDynamics | None = None,
        stage_policy: StagePolicy | str | None = None,
        noise: NoisyEstimates | float | None = None,
        instrumentation=None,
    ) -> DAGResult:
        """Execute the DAG; returns per-stage timings and the makespan.

        Parameters
        ----------
        dynamics:
            Optional fabric-rate schedule.  When it contains failure
            events a ``stage_policy`` is required (and vice versa).
        stage_policy:
            Job-level fault-tolerance policy (name or instance): what to
            do when a fabric failure aborts a stage's coflow attempt.
        noise:
            Plan-time estimate degradation: each stage's assignment is
            computed on a perturbed model (seeded independently per
            stage) while execution uses the true volumes.  A bare float
            is shorthand for ``NoisyEstimates(sigma=...)``.
        instrumentation:
            Optional :class:`repro.obs.Instrumentation` sink.  It is
            forwarded to the simulator (coflow lifecycle + epoch
            samples) and additionally receives ``planner_phase`` events
            (one per stage (re)plan, with wall-clock solve time) and
            ``stage_attempt`` spans (submit -> complete/abort, per
            attempt).
        """
        if isinstance(noise, (int, float)):
            noise = NoisyEstimates(sigma=float(noise))
        if noise is not None and noise.is_null:
            noise = None
        policy: StagePolicy | None = None
        if stage_policy is not None:
            policy = make_stage_policy(stage_policy)
            if dynamics is None or not dynamics.has_failures:
                raise ValueError(
                    f"stage policy {policy.name!r} requires a failure "
                    "schedule: pass dynamics containing at least one "
                    "port-failure event (rate 0), or drop the policy"
                )
        elif dynamics is not None and dynamics.has_failures:
            raise ValueError(
                "dynamics schedule contains port failures; pass "
                "stage_policy='fail-job'|'retry-stage'|'replan-stage' "
                "so the executor knows how to recover"
            )

        result = DAGResult(dag.name, strategy, self.scheduler_name)
        if len(dag) == 0:
            return result
        failure_aware = policy is not None
        obs = (
            instrumentation
            if instrumentation is not None and instrumentation.enabled
            else None
        )

        models: dict[str, ShuffleModel] = {
            name: self.ccf.model_for(dag.stage(name).workload, strategy)
            for name in dag.stage_names
        }
        n_ports = max(m.n for m in models.values())
        rate = next(iter(models.values())).rate
        fabric = Fabric(n_ports=n_ports, rate=rate)

        stage_index = {name: i for i, name in enumerate(dag.stage_names)}
        ids = itertools.count()
        attempt_stage: dict[int, str] = {}  # coflow id -> stage name
        last_cid: dict[str, int] = {}
        attempts: dict[str, int] = {name: 0 for name in dag.stage_names}
        current_plan: dict[str, ExecutionPlan] = {}
        started: dict[str, float] = {}
        finished: set[str] = set()
        failed_at: dict[str, float] = {}
        job_failed = False
        events: list[StageFailureEvent] = []
        # Chronological (stage, move-matrix) records of every replan.
        lineage: list[tuple[str, np.ndarray]] = []

        def effective_model(name: str) -> ShuffleModel:
            """The stage's model with inputs moved to their actual homes."""
            base = models[name]
            anc = dag.ancestors(name)
            moves = [m for s, m in lineage if s in anc]
            if not moves:
                return base
            h = base.h
            for m in moves:
                h = remap_chunks(h, m)
            return ShuffleModel(
                h=h,
                v0=base.v0,
                rate=base.rate,
                local_bytes_pre=base.local_bytes_pre,
                name=base.name,
                extra_send=base.extra_send,
                extra_recv=base.extra_recv,
            )

        def plan_stage(name: str, now: float) -> ExecutionPlan:
            """(Re)plan a stage lazily, against current lineage + liveness."""
            true_model = effective_model(name)
            fixed = dag.stage(name).dest
            start = _time.perf_counter()
            if fixed is not None:
                dest = true_model.validate_assignment(fixed)
            else:
                plan_model = true_model
                if noise is not None:
                    plan_model = noise.reseeded(
                        stage_index[name]
                    ).perturb_model(true_model)
                dest = self.ccf.assign(plan_model, strategy)
            if failure_aware and true_model.p > 0:
                egress_ok, ingress_ok = _alive_at(fabric, dynamics, now)
                alive = egress_ok & ingress_ok
                if not alive.all() and alive.any():
                    dest = replan_assignment(true_model, dest, alive)
            elapsed = _time.perf_counter() - start
            if obs is not None:
                obs.emit(
                    "planner_phase", now,
                    stage=name, wall_s=elapsed, strategy=str(strategy),
                )
            return ExecutionPlan(
                model=true_model,
                dest=dest,
                strategy=strategy,
                solve_seconds=elapsed,
            )

        attempt_start: dict[int, float] = {}  # coflow id -> submit time

        def attempt_closed(cid: int, now: float, status: str) -> None:
            """Emit the ``stage_attempt`` span of coflow ``cid``."""
            if obs is not None:
                start = attempt_start[cid]
                name = attempt_stage[cid]
                obs.emit(
                    "stage_attempt", start,
                    dur=float(now - start), stage=name,
                    attempt=attempts[name], status=status, cid=int(cid),
                )

        def submit(name: str, at: float) -> Coflow:
            cid = next(ids)
            attempt_stage[cid] = name
            attempt_start[cid] = at
            last_cid[name] = cid
            attempts[name] += 1
            started.setdefault(name, at)
            cf = current_plan[name].to_coflow(arrival_time=at)
            return Coflow(
                flows=list(cf.flows),
                arrival_time=at,
                coflow_id=cid,
                name=name,
            )

        def injector(completed_id: int, now: float) -> list[Coflow]:
            name = attempt_stage[completed_id]
            finished.add(name)
            attempt_closed(completed_id, now, "completed")
            if job_failed:
                return []
            out = []
            for child in dag.children_of(name):
                if child in started:
                    continue
                if not all(p in finished for p in dag.stage(child).parents):
                    continue
                current_plan[child] = plan_stage(child, now)
                out.append(
                    submit(child, max(now, dag.stage(child).min_start))
                )
            return out

        def stage_failure(name: str, now: float) -> StageFailure:
            """Describe a failed attempt for the policy's decision."""
            assert dynamics is not None
            plan = current_plan[name]
            model = plan.model
            egress_ok, ingress_ok = _alive_at(fabric, dynamics, now)
            vol = model.volume_matrix(plan.dest)
            np.fill_diagonal(vol, 0.0)
            used_src = vol.sum(axis=1) > 0
            used_dst = vol.sum(axis=0) > 0
            revive = now
            for port in np.flatnonzero(used_src & ~egress_ok):
                nxt = _next_recovery(dynamics, int(port), "egress", now)
                revive = math.inf if nxt is None else max(revive, nxt)
            for port in np.flatnonzero(used_dst & ~ingress_ok):
                nxt = _next_recovery(dynamics, int(port), "ingress", now)
                revive = math.inf if nxt is None else max(revive, nxt)
            resident = model.h.sum(axis=1) > 0
            v0_src = model.v0.sum(axis=1) > 0
            v0_dst = model.v0.sum(axis=0) > 0
            replannable = (
                model.p > 0
                and bool(egress_ok[resident].all())
                and bool(egress_ok[v0_src].all())
                and bool(ingress_ok[v0_dst].all())
                and bool((egress_ok & ingress_ok).any())
            )
            return StageFailure(
                stage=name,
                attempt=attempts[name],
                time=now,
                revive_time=revive,
                replannable=replannable,
            )

        def on_abort(cid: int, now: float) -> list[Coflow]:
            nonlocal job_failed
            name = attempt_stage[cid]
            attempt_closed(cid, now, "aborted")
            if job_failed:
                # A sibling already failed the job; this stage dies too.
                failed_at.setdefault(name, now)
                events.append(
                    StageFailureEvent(
                        time=now,
                        stage=name,
                        attempt=attempts[name],
                        action="fail-job",
                        detail="job already failed",
                    )
                )
                return []
            assert policy is not None
            failure = stage_failure(name, now)
            decision = policy.decide(failure)
            if isinstance(decision, FailJob):
                job_failed = True
                failed_at[name] = now
                events.append(
                    StageFailureEvent(
                        time=now,
                        stage=name,
                        attempt=attempts[name],
                        action="fail-job",
                        detail=decision.reason,
                    )
                )
                return []
            if isinstance(decision, RetryStage):
                events.append(
                    StageFailureEvent(
                        time=now,
                        stage=name,
                        attempt=attempts[name],
                        action="retry",
                        detail=f"resubmit at t={decision.resume_at:.6g}",
                    )
                )
                return [submit(name, max(decision.resume_at, now))]
            # Replan: keep surviving placements, reassign the rest over
            # fully-alive nodes, record the move for descendant planning.
            plan = current_plan[name]
            egress_ok, ingress_ok = _alive_at(fabric, dynamics, now)
            alive = egress_ok & ingress_ok
            new_dest = replan_assignment(plan.model, plan.dest, alive)
            moved = int((new_dest != plan.dest).sum())
            lineage.append((name, lineage_matrix(plan.model, plan.dest, new_dest)))
            current_plan[name] = ExecutionPlan(
                model=plan.model,
                dest=new_dest,
                strategy=plan.strategy,
                solve_seconds=plan.solve_seconds,
            )
            events.append(
                StageFailureEvent(
                    time=now,
                    stage=name,
                    attempt=attempts[name],
                    action="replan",
                    detail=f"moved {moved} partitions to surviving nodes",
                )
            )
            return [submit(name, now)]

        initial = []
        for name in dag.roots():
            current_plan[name] = plan_stage(name, dag.stage(name).min_start)
            initial.append(submit(name, dag.stage(name).min_start))
        sim = CoflowSimulator(
            fabric,
            make_scheduler(self.scheduler_name),
            dynamics=dynamics,
            recovery="abort" if failure_aware else None,
            estimate_noise=self.estimate_noise,
            instrumentation=obs,
        )
        res = sim.run(
            initial,
            injector=injector,
            on_abort=on_abort if failure_aware else None,
        )

        result.events = events
        by_stage: dict[str, list[FailureRecord]] = {}
        for rec in res.failures:
            name = attempt_stage.get(rec.coflow_id)
            if name is None:
                result.fabric_failures.append(rec)
            else:
                by_stage.setdefault(name, []).append(rec)

        for name in dag.stage_names:
            stage_events = [e for e in events if e.stage == name]
            stage_failures = by_stage.get(name, [])
            if name in finished:
                result.stages[name] = DAGStageResult(
                    name=name,
                    plan=current_plan[name],
                    start_time=started[name],
                    completion_time=res.completion_times[last_cid[name]],
                    status="completed",
                    attempts=attempts[name],
                    failures=stage_failures,
                    events=stage_events,
                )
            elif name in failed_at:
                result.stages[name] = DAGStageResult(
                    name=name,
                    plan=current_plan.get(name),
                    start_time=started.get(name, failed_at[name]),
                    completion_time=failed_at[name],
                    status="failed",
                    attempts=attempts[name],
                    failures=stage_failures,
                    events=stage_events,
                )
            elif failure_aware:
                # Never became ready: an ancestor failed (or the job was
                # failed before its parents completed).
                result.stages[name] = DAGStageResult(
                    name=name,
                    plan=None,
                    start_time=math.nan,
                    completion_time=math.nan,
                    status="skipped",
                    attempts=0,
                    failures=stage_failures,
                    events=stage_events,
                )
            else:
                raise RuntimeError(
                    f"stage {name!r} never became ready; unreachable from roots"
                )
        return result
