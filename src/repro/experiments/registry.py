"""Experiment registry: one entry per paper artifact.

Two registries live here:

* :data:`EXPERIMENTS` -- name -> zero-argument runner returning a
  :class:`ResultTable` (the ``ccf run`` surface; always serial).
* :data:`SWEEPS` -- the subset whose grids are declared as engine cell
  lists; :func:`build_sweep` turns a name plus CLI-style overrides into
  a :class:`~repro.experiments.engine.SweepSpec` for ``ccf sweep``.

Entries name their function by module, and the module is imported the
first time the entry is called, so importing the registry (as the
``ccf`` parser does for its ``choices``) loads no experiment.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.experiments.engine import SweepSpec
    from repro.experiments.tables import ResultTable

__all__ = [
    "EXPERIMENTS",
    "SWEEPS",
    "FIGURE_SWEEPS",
    "QUICK_SCALE_FACTOR",
    "QUICK_N_NODES",
    "build_sweep",
    "run_experiment",
]

#: Reduced scale of the figure sweeps behind every ``--quick`` flag
#: (the single source of truth; figures.py and the CLI read it here).
QUICK_SCALE_FACTOR = 30.0
QUICK_N_NODES = 50


def _lazy(module: str, name: str) -> Callable:
    """``repro.experiments.<module>.<name>``, imported when first called.

    Listing or parsing experiment names then loads no experiment module;
    running one loads only the module it needs.
    """

    def call(*args, **kwargs):
        target = getattr(import_module(f"repro.experiments.{module}"), name)
        return target(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


#: Name -> (module, serial runner, engine sweep factory or None).
_CATALOG: dict[str, tuple[str, str, str | None]] = {
    "motivating": ("motivating", "run_motivating", None),
    "fig5": ("figures", "run_fig5_nodes", "fig5_sweep"),
    "fig6": ("figures", "run_fig6_zipf", "fig6_sweep"),
    "fig7": ("figures", "run_fig7_skew", "fig7_sweep"),
    "solver": ("solver", "run_solver_scaling", None),
    "ablation-sched": (
        "ablation", "run_scheduler_ablation", "scheduler_ablation_sweep"
    ),
    "ablation-heuristic": (
        "ablation", "run_heuristic_ablation", "heuristic_ablation_sweep"
    ),
    "trace": ("extensions", "run_trace_schedulers", None),
    "online": ("extensions", "run_online_vs_oblivious", None),
    "topology": ("extensions", "run_topology_sweep", None),
    "queries": ("querybench", "run_query_suite", "queries_sweep"),
    "robustness": ("robustness", "run_robustness", "robustness_sweep"),
    "recovery": ("robustness", "run_failure_recovery", "recovery_sweep"),
    "dag-recovery": ("dagrecovery", "run_dag_recovery", None),
    "validation": ("validation", "run_model_validation", None),
    "crossover": ("crossover", "run_broadcast_crossover", "crossover_sweep"),
    "psweep": ("psweep", "run_partition_sweep", "psweep_sweep"),
    "chaos": ("chaoscampaign", "run_chaos", "campaign_sweep"),
    "overload": ("service", "run_overload", "overload_sweep"),
    "tournament": ("tournament", "run_tournament", "tournament_sweep"),
    "summary": ("summary", "run_summary", None),
}

#: Name -> zero-argument runner returning a ResultTable.
EXPERIMENTS: dict[str, Callable[[], ResultTable]] = {
    name: _lazy(module, runner)
    for name, (module, runner, _) in _CATALOG.items()
}

#: Name -> keyword-only SweepSpec factory accepting at least ``quick``.
#: Keys are a subset of :data:`EXPERIMENTS`: the grid-shaped experiments
#: whose cells are independent and engine-runnable.
SWEEPS: dict[str, Callable[..., SweepSpec]] = {
    name: _lazy(module, sweep)
    for name, (module, _, sweep) in _CATALOG.items()
    if sweep is not None
}

#: Sweeps accepting the figure-style --scale-factor / --nodes overrides.
FIGURE_SWEEPS = frozenset({"fig5", "fig6", "fig7"})


def run_experiment(name: str) -> ResultTable:
    """Run one registered experiment with paper defaults.

    Parameters
    ----------
    name:
        A key of :data:`EXPERIMENTS`.

    Returns
    -------
    ResultTable
        The experiment's table at paper defaults.

    Raises
    ------
    ValueError
        If ``name`` is not registered.
    """
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    return runner()


def build_sweep(
    name: str,
    *,
    quick: bool = False,
    scale_factor: float | None = None,
    n_nodes: int | None = None,
) -> SweepSpec:
    """Build the cell grid of one sweep-capable experiment.

    Parameters
    ----------
    name:
        A key of :data:`SWEEPS`.
    quick:
        Use the experiment's reduced smoke-test grid.
    scale_factor, n_nodes:
        Workload overrides; only the figure sweeps (fig5/fig6/fig7)
        accept them.

    Returns
    -------
    SweepSpec
        The grid, ready for :func:`repro.experiments.engine.run_sweep`.

    Raises
    ------
    ValueError
        If ``name`` is not sweep-capable, or a figure-only override is
        passed to a non-figure sweep.
    """
    try:
        factory = SWEEPS[name]
    except KeyError:
        raise ValueError(
            f"experiment {name!r} is not sweep-capable; "
            f"choose from {sorted(SWEEPS)}"
        ) from None
    if name in FIGURE_SWEEPS:
        return factory(quick=quick, scale_factor=scale_factor, n_nodes=n_nodes)
    if scale_factor is not None or n_nodes is not None:
        raise ValueError(
            f"--scale-factor/--nodes only apply to figure sweeps "
            f"({sorted(FIGURE_SWEEPS)}), not {name!r}"
        )
    return factory(quick=quick)
