"""Core CCF: the paper's co-optimization model, algorithms and framework.

* :mod:`repro.core.model` -- the shuffle model (chunk matrix ``h[i,k]``,
  initial flows ``v0``) and plan evaluation (models (1)->(3) of the paper).
* :mod:`repro.core.strategies` -- application-level baselines: ``Hash``
  (hash-based join) and ``Mini`` (per-partition traffic minimizer, the
  track-join-style strategy).
* :mod:`repro.core.heuristic` -- Algorithm 1, the fast greedy CCF solver.
* :mod:`repro.core.exact` -- the exact MILP formulation (model (3)).
* :mod:`repro.core.skew` -- partial-duplication skew handling (§III-C).
* :mod:`repro.core.framework` -- the CCF orchestrator (Fig. 3): workload
  -> (skew pre-processing) -> strategy -> execution plan -> coflow.
* :mod:`repro.core.resilience` -- supervised-execution primitives:
  retry/backoff, wall-clock budgets, stall detection, crash reports and
  the structured error taxonomy shared by the simulator watchdog, the
  sweep engine and the chaos campaign runner.
"""

from repro.core.exact import ExactResult, ccf_exact
from repro.core.framework import CCF, PlanComparison
from repro.core.heuristic import ccf_heuristic
from repro.core.incremental import IncrementalPlanner
from repro.core.localsearch import RefinementResult, refine_assignment
from repro.core.model import PlanMetrics, ShuffleModel
from repro.core.multi import ConcurrentPlan, merge_models, plan_concurrent
from repro.core.noise import NoisyEstimates
from repro.core.online import OnlineCCF
from repro.core.plan import ExecutionPlan
from repro.core.replan import lineage_matrix, remap_chunks, replan_assignment
from repro.core.predictor import PredictedCCTs, predict_ccts
from repro.core.relax import LPRoundingResult, ccf_lp_rounding
from repro.core.resilience import (
    Backoff,
    BudgetExceeded,
    CacheCorruption,
    CellTimeout,
    Deadline,
    ResilienceError,
    StallDetector,
    StallError,
    WorkerCrash,
    retry_call,
)
from repro.core.skew import PartialDuplication, SkewHandlingResult
from repro.core.strategies import (
    STRATEGIES,
    hash_assignment,
    mini_assignment,
)
from repro.core.topology_aware import ccf_heuristic_topology, evaluate_on_topology

__all__ = [
    "Backoff",
    "BudgetExceeded",
    "CCF",
    "CacheCorruption",
    "CellTimeout",
    "Deadline",
    "ResilienceError",
    "StallDetector",
    "StallError",
    "WorkerCrash",
    "retry_call",
    "ConcurrentPlan",
    "ExactResult",
    "ExecutionPlan",
    "IncrementalPlanner",
    "LPRoundingResult",
    "NoisyEstimates",
    "OnlineCCF",
    "PartialDuplication",
    "PlanComparison",
    "PlanMetrics",
    "STRATEGIES",
    "ShuffleModel",
    "SkewHandlingResult",
    "ccf_exact",
    "ccf_heuristic",
    "ccf_heuristic_topology",
    "ccf_lp_rounding",
    "evaluate_on_topology",
    "hash_assignment",
    "lineage_matrix",
    "merge_models",
    "mini_assignment",
    "plan_concurrent",
    "remap_chunks",
    "replan_assignment",
    "PredictedCCTs",
    "predict_ccts",
    "RefinementResult",
    "refine_assignment",
]
