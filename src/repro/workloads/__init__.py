"""Workload generators for the CCF evaluation.

Two paths produce the same statistical model of the paper's TPC-H join
(§IV-A2): uniform join keys, per-node chunk sizes following a Zipf
distribution with a *fixed* node ranking (the paper: "the first node always
holds the largest data chunk for each partition"), and a controlled
fraction of ORDERS tuples re-keyed to CUSTKEY = 1 to inject skew.

* :mod:`repro.workloads.tpch` -- tuple-level generator (real key arrays,
  real shuffles and local joins; use at small scale).
* :mod:`repro.workloads.analytic` -- closed-form chunk matrices at full
  paper scale (n = 1000, p = 15000, ~1 TB) without materializing a single
  tuple.

A test asserts the two paths agree statistically for matched parameters.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "analytic": ("AnalyticJoinWorkload",),
    "tpch": ("TPCHConfig", "generate_tpch_relations"),
    "zipf": ("zipf_weights",),
})
