"""CCF: Coflow-based Co-optimization Framework for data analytics.

Full reproduction of Cheng, Wang, Pei & Epema,
*A Coflow-based Co-optimization Framework for High-performance Data
Analytics*, ICPP 2017 (DOI 10.1109/ICPP.2017.48).

Quick tour
----------
>>> from repro import CCF, AnalyticJoinWorkload
>>> wl = AnalyticJoinWorkload(n_nodes=50, scale_factor=6.0)
>>> cmp = CCF().compare(wl)                  # Hash vs Mini vs CCF
>>> cmp.speedup("mini", "ccf") > 1           # co-optimization wins
True

Packages
--------
``repro.core``
    The co-optimization model, Algorithm 1, the exact MILP, skew handling
    and the framework front-end.
``repro.network``
    Coflow abstraction, non-blocking fabric, event-driven simulator and
    the scheduling disciplines (fair, FIFO, SCF, NCF, SEBF, D-CLAS).
``repro.join``
    Distributed relations, hash partitioning, shuffle execution, local
    joins, and the distributed operators (join/aggregate/distinct).
``repro.workloads``
    TPC-H-like tuple-level generator and the closed-form analytic
    generator at paper scale.
``repro.analytics``
    Multi-operator analytical jobs and their executor.
``repro.experiments``
    The paper's evaluation: Figures 5/6/7, the motivating example, the
    solver-overhead study and ablations.

Every package re-exports its public names lazily: ``import repro``
loads no subpackage, and a name's defining module is imported the first
time the name is used.
"""

__version__ = "1.0.0"


def _lazy_exports(package: str, exports: dict[str, tuple[str, ...]]) -> tuple:
    """``(__all__, __getattr__, __dir__)`` re-exporting names lazily (PEP 562).

    Every package ``__init__`` in ``repro`` maps each submodule (relative
    to ``package``, the module being initialised) to the names it
    re-exports.  The first ``package.Name`` lookup imports the submodule
    and stores the object in the package namespace, so importing a
    package loads none of its submodules.  ``from package import Name``,
    star-imports, ``mock.patch`` and pickling work as with eager imports;
    an unknown name raises :class:`AttributeError`.
    """
    import importlib
    import sys

    origin = {
        name: f"{package}.{module}"
        for module, names in exports.items()
        for name in names
    }
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return list(origin), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "analytics": ("DAGExecutor", "JobDAG"),
    "core": (
        "CCF",
        "ExecutionPlan",
        "PlanComparison",
        "ShuffleModel",
        "ccf_exact",
        "ccf_heuristic",
    ),
    "join": ("DistributedJoin", "DistributedRelation", "HashPartitioner"),
    "network": ("Coflow", "CoflowSimulator", "Fabric", "Flow"),
    "obs": ("Instrumentation", "Tracer"),
    "workloads": ("AnalyticJoinWorkload", "TPCHConfig", "generate_tpch_relations"),
})
__all__.append("__version__")
