"""Job-level fault tolerance: stage policies for DAG execution.

PR 1 made single coflows survive port failures at *flow* granularity.
Real engines recover at **stage** granularity: a lost shuffle partition
fails its stage attempt, the stage is re-executed (on the same placement
once the fabric heals, or on a replanned placement over survivors), and
descendant stages consume the output from wherever it actually landed
(lineage re-execution).  A :class:`StagePolicy` is the pluggable decision
point: each time a stage's coflow attempt is aborted by a fabric failure,
the executor describes the failure as a :class:`StageFailure` and the
policy answers with one of three decisions:

``fail-job``
    Give up on the whole job.  Descendant stages are never launched and
    the job is reported failed (never raised) with structured records.
``retry-stage``
    Re-execute the stage with the *same* placement once every failed
    port it needs has a scheduled repair; attempts are bounded by
    ``max_stage_retries``.
``replan-stage``
    Re-run the co-optimization for the stage over the surviving nodes
    (Algorithm 1's step rule restricted through
    :class:`~repro.core.incremental.IncrementalPlanner`'s allowed mask,
    seeded with the surviving placements) and resubmit immediately;
    descendants are later planned against the new partition placement.
    Falls back to retry semantics when the stage's *input* data is
    unreadable (a source node died -- lineage data gone until repair).

Every decision is recorded as a :class:`StageFailureEvent` and surfaced
on ``DAGStageResult`` / ``DAGResult`` so experiments can report
job-completion-time inflation, retry counts and replans, not just CCTs.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.checks import non_negative

__all__ = [
    "StageFailure",
    "StageFailureEvent",
    "FailJob",
    "RetryStage",
    "ReplanStage",
    "StagePolicy",
    "FailJobPolicy",
    "RetryStagePolicy",
    "ReplanStagePolicy",
    "STAGE_POLICIES",
    "make_stage_policy",
]


@dataclass(frozen=True)
class StageFailure:
    """One failed stage attempt, as presented to a policy.

    Parameters
    ----------
    stage:
        Name of the stage whose coflow attempt was aborted.
    attempt:
        1-based number of the attempt that just failed.
    time:
        Simulation time of the abort.
    revive_time:
        Earliest time at which every currently-dead port the stage's
        *current placement* needs has a scheduled repair (``math.inf``
        when some port never recovers) -- the soonest a same-placement
        retry can possibly succeed.
    replannable:
        True when a surviving placement exists: every node holding the
        stage's input bytes can still send, fixed (broadcast) flows keep
        their endpoints, and at least one node is fully alive to receive
        reassigned partitions.
    """

    stage: str
    attempt: int
    time: float
    revive_time: float
    replannable: bool


@dataclass(frozen=True)
class StageFailureEvent:
    """Structured record of one stage-policy decision (or job failure)."""

    time: float
    stage: str
    attempt: int
    action: str  # "retry" | "replan" | "fail-job"
    detail: str = ""


# -- policy decisions ----------------------------------------------------
@dataclass(frozen=True)
class FailJob:
    """Abort the whole job; descendants are skipped, nothing raises."""

    reason: str = ""


@dataclass(frozen=True)
class RetryStage:
    """Resubmit the same placement at ``resume_at`` (absolute time)."""

    resume_at: float


@dataclass(frozen=True)
class ReplanStage:
    """Replan the stage over surviving nodes and resubmit immediately."""


StageDecision = FailJob | RetryStage | ReplanStage


class StagePolicy(ABC):
    """Strategy deciding what happens when a stage attempt fails."""

    #: Registry name; overridden by subclasses.
    name: str = "base"

    @abstractmethod
    def decide(self, failure: StageFailure) -> StageDecision:
        """Return the decision for one failed stage attempt."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class FailJobPolicy(StagePolicy):
    """Fail fast: any stage failure kills the job (reported, not raised)."""

    name = "fail-job"

    def decide(self, failure: StageFailure) -> StageDecision:
        return FailJob(
            reason=f"stage {failure.stage!r} lost to a fabric failure"
        )


class RetryStagePolicy(StagePolicy):
    """Re-execute the failed stage in place once its ports are repaired.

    Parameters
    ----------
    max_stage_retries:
        Re-executions allowed per stage before the job is failed.
    """

    name = "retry-stage"

    def __init__(self, *, max_stage_retries: int = 3) -> None:
        non_negative("max_stage_retries", max_stage_retries)
        self.max_stage_retries = max_stage_retries

    def decide(self, failure: StageFailure) -> StageDecision:
        if failure.attempt > self.max_stage_retries:
            return FailJob(
                reason=f"stage {failure.stage!r} exhausted "
                f"{self.max_stage_retries} retries"
            )
        if not math.isfinite(failure.revive_time):
            return FailJob(
                reason=f"stage {failure.stage!r} needs a port that never "
                "recovers"
            )
        return RetryStage(resume_at=max(failure.revive_time, failure.time))


class ReplanStagePolicy(RetryStagePolicy):
    """Replan the stage over survivors; retry in place when inputs died.

    The stage's lost placements are reassigned through Algorithm 1's
    step rule restricted to fully-alive nodes; when the stage's *input*
    bytes live on a dead node (nothing to replan -- the data itself is
    gone until repair) the policy degrades to the inherited retry
    semantics, and to ``fail-job`` when no repair is ever scheduled.
    """

    name = "replan-stage"

    def decide(self, failure: StageFailure) -> StageDecision:
        if failure.attempt > self.max_stage_retries:
            return FailJob(
                reason=f"stage {failure.stage!r} exhausted "
                f"{self.max_stage_retries} retries"
            )
        if failure.replannable:
            return ReplanStage()
        return super().decide(failure)


#: Registry of policy names (and their short CLI aliases).
STAGE_POLICIES: dict[str, type[StagePolicy]] = {
    "fail-job": FailJobPolicy,
    "retry-stage": RetryStagePolicy,
    "replan-stage": ReplanStagePolicy,
}

_ALIASES = {"fail": "fail-job", "retry": "retry-stage", "replan": "replan-stage"}


def make_stage_policy(name: "str | StagePolicy", **kwargs) -> StagePolicy:
    """Instantiate a stage policy by registry name (aliases accepted).

    ``retry`` and ``replan`` are accepted as short forms of
    ``retry-stage`` / ``replan-stage``; an already-constructed policy is
    passed through (kwargs must then be empty).
    """
    if isinstance(name, StagePolicy):
        if kwargs:
            raise ValueError(
                "cannot apply keyword options to an instantiated policy"
            )
        return name
    canonical = _ALIASES.get(name, name)
    try:
        cls = STAGE_POLICIES[canonical]
    except KeyError:
        raise ValueError(
            f"unknown stage policy {name!r}; choose from "
            f"{sorted(STAGE_POLICIES)} (short forms: "
            f"{sorted(_ALIASES)})"
        ) from None
    return cls(**kwargs)
