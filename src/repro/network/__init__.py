"""Network substrate: coflow abstraction, fabric model, and a flow-level simulator.

This subpackage is a from-scratch substitute for CoflowSim (the Java
simulator used by Varys and Aalo, and by the CCF paper as the measurement
back-end).  It provides:

* :mod:`repro.network.flow` -- the ``Flow`` / ``Coflow`` abstraction
  ([src, dst, volume] triples grouped by job).
* :mod:`repro.network.fabric` -- the non-blocking-switch fabric model with
  per-port ingress/egress capacities.
* :mod:`repro.network.simulator` -- an event-driven fluid-flow simulator
  that advances rate allocations between discrete events.
* :mod:`repro.network.schedulers` -- inter-coflow scheduling disciplines:
  per-flow fair sharing, FIFO, SCF, NCF, SEBF (Varys), D-CLAS (Aalo), a
  worst-case sequential schedule used by the paper's motivating example,
  and two weighted-CCT schedulers with proven approximation ratios
  (``wcct5``, ``lpcct``).
* :mod:`repro.network.bounds` -- the interval-indexed LP lower bound on
  total weighted CCT, used to report optimality gaps
  (``ccf tournament``).
* :mod:`repro.network.topology` -- an optional link-capacity extension
  (RAPIER-flavoured) beyond the non-blocking switch.
* :mod:`repro.network.dynamics` / :mod:`repro.network.recovery` /
  :mod:`repro.network.chaos` -- the fault-tolerance layer: scheduled
  rate changes and port failures, pluggable flow-recovery policies
  (abort / retry / replan), and a seeded MTBF/MTTR chaos harness.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "bounds": (
        "WeightedCCTBound",
        "interval_indexed_lp",
        "weighted_cct_lower_bound",
    ),
    "chaos": ("ChaosConfig", "chaos_schedule"),
    "dynamics": ("FabricDynamics", "RateEvent"),
    "fabric": ("Fabric",),
    "flow": ("Coflow", "Flow"),
    "recovery": (
        "AbortPolicy",
        "RecoveryPolicy",
        "ReplanPolicy",
        "RetryPolicy",
        "make_recovery_policy",
    ),
    "simulator": ("CoflowSimulator", "SimulationResult"),
})
