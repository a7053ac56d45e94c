"""Analytical jobs: sequences of distributed operators under CCF.

The paper's architecture (Fig. 3) decomposes an analytical job into
sequential distributed operators, each co-optimized and handed to the
data-processing layer.  :class:`repro.analytics.query.AnalyticalJob`
models that pipeline; :class:`repro.analytics.executor.JobExecutor` plans
every stage with a chosen strategy and measures total communication time,
either in closed form or through the coflow simulator.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "catalog": ("Catalog", "TableStats"),
    "compile": ("QueryExecutor", "QueryResult", "estimate", "optimize_joins"),
    "dag": ("DAGExecutor", "DAGResult", "DAGStageResult", "JobDAG"),
    "executor": ("JobExecutor", "JobResult", "StageResult"),
    "logical": ("Distinct", "EquiJoin", "Filter", "GroupByKey", "Scan"),
    "query": ("AnalyticalJob", "Stage"),
    "stagepolicy": (
        "STAGE_POLICIES",
        "FailJobPolicy",
        "ReplanStagePolicy",
        "RetryStagePolicy",
        "StageFailureEvent",
        "StagePolicy",
        "make_stage_policy",
    ),
})
