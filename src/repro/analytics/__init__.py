"""Analytical jobs: sequences of distributed operators under CCF.

The paper's architecture (Fig. 3) decomposes an analytical job into
sequential distributed operators, each co-optimized and handed to the
data-processing layer.  A sequential job is a chain
:class:`repro.analytics.dag.JobDAG` (each stage's parent is the one
before it); :class:`repro.analytics.dag.DAGExecutor` plans every stage
with a chosen strategy and runs the stage coflows through the coflow
simulator.  The closed-form communication time of a stage is its
``CCF().plan(workload, strategy).cct``.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "catalog": ("Catalog", "TableStats"),
    "compile": ("QueryExecutor", "QueryResult", "estimate", "optimize_joins"),
    "dag": ("DAGExecutor", "DAGResult", "DAGStageResult", "JobDAG"),
    "logical": ("Distinct", "EquiJoin", "Filter", "GroupByKey", "Scan"),
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
