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
* :mod:`repro.core.seeds` -- ``derive_seed``, the hash-derived seeds the
  service stream, the sweep engine and the chaos campaign share.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "exact": ("ExactResult", "ccf_exact"),
    "framework": ("CCF", "PlanComparison"),
    "heuristic": ("ccf_heuristic",),
    "incremental": ("IncrementalPlanner",),
    "localsearch": ("RefinementResult", "refine_assignment"),
    "model": ("PlanMetrics", "ShuffleModel"),
    "multi": ("ConcurrentPlan", "merge_models", "plan_concurrent"),
    "noise": ("NoisyEstimates",),
    "online": ("OnlineCCF",),
    "plan": ("ExecutionPlan",),
    "replan": ("lineage_matrix", "remap_chunks", "replan_assignment"),
    "predictor": ("PredictedCCTs", "predict_ccts"),
    "relax": ("LPRoundingResult", "ccf_lp_rounding"),
    "resilience": (
        "Backoff",
        "BudgetExceeded",
        "CacheCorruption",
        "CellTimeout",
        "Deadline",
        "ResilienceError",
        "StallDetector",
        "StallError",
        "WorkerCrash",
        "retry_call",
    ),
    "skew": ("PartialDuplication", "SkewHandlingResult"),
    "strategies": ("STRATEGIES", "hash_assignment", "mini_assignment"),
    "topology_aware": ("ccf_heuristic_topology", "evaluate_on_topology"),
})
