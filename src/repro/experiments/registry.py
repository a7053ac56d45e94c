"""Experiment registry: one entry per paper artifact.

Each experiment is defined by one function: a grid-shaped experiment by
its :class:`~repro.experiments.engine.SweepSpec` factory, any other by a
zero-argument runner returning a :class:`ResultTable`.  Two registries
are derived from that catalog:

* :data:`EXPERIMENTS` -- name -> zero-argument runner returning a
  :class:`ResultTable` (the ``ccf run`` surface; always serial).  For a
  grid experiment it is ``run_sweep(factory()).table``.
* :data:`SWEEPS` -- name -> SweepSpec factory of the grid experiments;
  :func:`build_sweep` turns a name plus CLI-style overrides into a spec
  for ``ccf sweep``, and :func:`run_experiment` runs that spec serially
  without a cache for ``ccf run``.

Entries name their function by module, and the module is imported the
first time the entry is called, so importing the registry (as the
``ccf`` parser does for its ``choices``) loads no experiment.
"""

from __future__ import annotations

from functools import partial
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


#: Name -> (module, function).  A ``run_*`` function is a zero-argument
#: runner returning a ResultTable; any other is a keyword-only SweepSpec
#: factory accepting at least ``quick``.
_CATALOG: dict[str, tuple[str, str]] = {
    "motivating": ("motivating", "run_motivating"),
    "fig5": ("figures", "fig5_sweep"),
    "fig6": ("figures", "fig6_sweep"),
    "fig7": ("figures", "fig7_sweep"),
    "solver": ("solver", "run_solver_scaling"),
    "ablation-sched": ("ablation", "scheduler_ablation_sweep"),
    "ablation-heuristic": ("ablation", "heuristic_ablation_sweep"),
    "trace": ("extensions", "run_trace_schedulers"),
    "online": ("extensions", "run_online_vs_oblivious"),
    "topology": ("extensions", "run_topology_sweep"),
    "queries": ("querybench", "queries_sweep"),
    "robustness": ("robustness", "robustness_sweep"),
    "recovery": ("robustness", "recovery_sweep"),
    "dag-recovery": ("dagrecovery", "run_dag_recovery"),
    "validation": ("validation", "run_model_validation"),
    "crossover": ("crossover", "crossover_sweep"),
    "psweep": ("psweep", "psweep_sweep"),
    "chaos": ("chaoscampaign", "campaign_sweep"),
    "overload": ("service", "overload_sweep"),
    "tournament": ("tournament", "tournament_sweep"),
    "summary": ("summary", "run_summary"),
}

#: Name -> keyword-only SweepSpec factory accepting at least ``quick``:
#: the grid-shaped experiments, whose cells are independent and
#: engine-runnable.
SWEEPS: dict[str, Callable[..., SweepSpec]] = {
    name: _lazy(module, function)
    for name, (module, function) in _CATALOG.items()
    if not function.startswith("run_")
}

#: Sweeps accepting the figure-style --scale-factor / --nodes overrides.
FIGURE_SWEEPS = frozenset({"fig5", "fig6", "fig7"})


def run_experiment(
    name: str,
    *,
    quick: bool = False,
    scale_factor: float | None = None,
    n_nodes: int | None = None,
) -> ResultTable:
    """Run one registered experiment, serially and without a cache.

    A grid experiment runs its :func:`build_sweep` spec with the
    overrides through :func:`repro.experiments.engine.run_sweep` at
    ``jobs=1`` (the ``ccf run`` path; ``ccf sweep`` adds workers and
    the cell cache to the same grid, bit-identically).  Any other
    experiment takes no override and runs at its defaults.

    Parameters
    ----------
    name:
        A key of :data:`EXPERIMENTS`.
    quick:
        Use a grid experiment's reduced smoke-test grid.
    scale_factor, n_nodes:
        Workload overrides; only the figure sweeps (fig5/fig6/fig7)
        accept them.

    Returns
    -------
    ResultTable
        The experiment's table.

    Raises
    ------
    ValueError
        If ``name`` is not registered, or an override is passed to an
        experiment that cannot take it.
    """
    if name not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        )
    if name not in SWEEPS:
        if quick or scale_factor is not None or n_nodes is not None:
            raise ValueError(
                f"--quick/--scale-factor/--nodes only apply to sweep "
                f"experiments ({', '.join(sorted(SWEEPS))}), not {name!r}"
            )
        return EXPERIMENTS[name]()
    from repro.experiments.engine import run_sweep

    spec = build_sweep(
        name, quick=quick, scale_factor=scale_factor, n_nodes=n_nodes
    )
    return run_sweep(spec).table


#: Name -> zero-argument runner returning a ResultTable; a grid
#: experiment's is :func:`run_experiment` at its defaults, that is
#: ``run_sweep(factory()).table``.  Keys are a superset of :data:`SWEEPS`.
EXPERIMENTS: dict[str, Callable[[], ResultTable]] = {
    name: partial(run_experiment, name)
    if name in SWEEPS
    else _lazy(module, function)
    for name, (module, function) in _CATALOG.items()
}


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
