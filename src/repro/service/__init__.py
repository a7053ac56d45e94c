"""``repro.service`` -- the open-loop service mode.

Every other entry point in the repo is a closed batch: one job DAG or
one sweep cell, all coflows known up front, run to completion.  This
package is the "millions of users" direction from the roadmap: a
continuous, seeded stream of coflow arrivals (:mod:`arrivals`) fed
through a pluggable admission controller (:mod:`admission`) into the
fluid simulator, supervised end to end (:mod:`loop`), plus a capacity
planner that binary-searches the knee of the p95-CCT curve
(:mod:`capacity`).

The design constraint throughout is *graceful degradation*: when
offered load exceeds fabric capacity the service must shed or defer
work and keep the latency of what it admits within budget -- never
grow its queues and memory without bound.  ``ccf serve`` and
``ccf capacity`` are the CLI surfaces.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "admission": (
        "POLICIES",
        "AcceptAll",
        "AdmissionController",
        "AdmissionPolicy",
        "BoundedQueue",
        "LoadShedding",
        "ServiceState",
        "SLOGuard",
        "make_admission_policy",
    ),
    "arrivals": (
        "ArrivalConfig",
        "ArrivalStream",
        "expected_coflow_bytes",
        "offered_load",
        "rate_for_load",
    ),
    "capacity": (
        "CapacityProbe",
        "CapacityResult",
        "find_load_capacity",
        "find_node_capacity",
    ),
    "loop": ("ServiceConfig", "ServiceReport", "run_service"),
})
