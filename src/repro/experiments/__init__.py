"""The paper's evaluation, reproducible end to end.

Each experiment mirrors one artifact of the paper (§IV):

===================  =================================================
``motivating``       Fig. 1 + Fig. 2 (schedule plans and their CCTs)
``fig5``             Fig. 5 -- sweep over the number of nodes
``fig6``             Fig. 6 -- sweep over the Zipf factor
``fig7``             Fig. 7 -- sweep over the skewness
``solver``           §III-B -- exact MILP vs heuristic scaling & gap
``ablation-sched``   coflow-scheduler comparison (Varys/Aalo/baselines)
``ablation-heuristic``  Algorithm 1 design-choice ablation
===================  =================================================

Run them via :func:`repro.experiments.registry.run_experiment` or the
``ccf`` CLI.  The grid-shaped experiments are also sweep-capable:
``ccf sweep <name>`` (or :func:`repro.experiments.engine.run_sweep` on
the spec from :func:`repro.experiments.registry.build_sweep`) runs their
cells in parallel with on-disk memoization, bit-identically to the
serial path.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "engine": ("Cell", "CellCache", "SweepOutcome", "SweepSpec", "run_sweep"),
    "registry": ("EXPERIMENTS", "SWEEPS", "build_sweep", "run_experiment"),
    "tables": ("ResultTable",),
})
