"""Figures 5, 6 and 7: the paper's three evaluation sweeps.

Each sweep compares Hash / Mini / CCF over the TPC-H-derived workload
(SF 600, ~1 TB, p = 15 n, 128 MB/s ports) and reports the two panels of
each figure: (a) network traffic in GB and (b) network communication time
in seconds.  Defaults reproduce the paper's exact sweep points; pass a
smaller ``scale_factor`` or sweep list for quick runs.

The grids are declared as cell lists for
:mod:`repro.experiments.engine`: ``run_fig5_nodes`` & co are the serial
fallback path, while ``ccf sweep fig5 --jobs N`` fans the same cells out
over worker processes and memoizes each in the on-disk cell cache --
both produce bit-identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.framework import CCF, DEFAULT_STRATEGIES
from repro.experiments.engine import Cell, SweepSpec, rows_to_table, run_sweep
from repro.experiments.registry import QUICK_N_NODES, QUICK_SCALE_FACTOR
from repro.experiments.tables import ResultTable
from repro.workloads.analytic import AnalyticJoinWorkload

__all__ = [
    "SweepConfig",
    "run_fig5_nodes",
    "run_fig6_zipf",
    "run_fig7_skew",
    "fig5_sweep",
    "fig6_sweep",
    "fig7_sweep",
    "QUICK_SCALE_FACTOR",
    "QUICK_N_NODES",
]

#: Paper sweep points.
FIG5_NODES = (100, 200, 300, 400, 500, 600, 700, 800, 900, 1000)
FIG6_ZIPF = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
FIG7_SKEW = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass
class SweepConfig:
    """Shared knobs of the three sweeps (paper defaults)."""

    scale_factor: float = 600.0
    n_nodes: int = 500
    zipf_s: float = 0.8
    skew: float = 0.2
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES
    ccf: CCF = field(default_factory=CCF)

    @classmethod
    def quick(cls) -> "SweepConfig":
        """The reduced-scale config behind every ``--quick`` flag."""
        return cls(scale_factor=QUICK_SCALE_FACTOR, n_nodes=QUICK_N_NODES)

    def workload(self, **overrides) -> AnalyticJoinWorkload:
        params = dict(
            n_nodes=self.n_nodes,
            scale_factor=self.scale_factor,
            zipf_s=self.zipf_s,
            skew=self.skew,
        )
        params.update(overrides)
        return AnalyticJoinWorkload(**params)


def _ccf_knobs(ccf: CCF) -> dict:
    """The JSON-able constructor knobs of a :class:`CCF` front-end.

    Cells rebuild the framework from these in the worker process; they
    are also part of the cell's cache identity.
    """
    return {
        "skew_handling": ccf.skew_handling,
        "sort_partitions": ccf.sort_partitions,
        "locality_tiebreak": ccf.locality_tiebreak,
        "exact_time_limit": ccf.exact_time_limit,
        "exact_max_variables": ccf.exact_max_variables,
    }


def _figure_cell(
    *,
    axis,
    n_nodes: int,
    scale_factor: float,
    zipf_s: float,
    skew: float,
    strategies: Sequence[str],
    ccf: dict,
) -> list:
    """One sweep point: plan every strategy over one workload.

    Parameters
    ----------
    axis:
        The swept value, echoed as the row's first column.
    n_nodes, scale_factor, zipf_s, skew:
        :class:`~repro.workloads.analytic.AnalyticJoinWorkload` knobs
        (one of them equals ``axis``, depending on the figure).
    strategies:
        Strategy names to plan, in column order.
    ccf:
        :func:`_ccf_knobs` dict rebuilding the :class:`CCF` front-end.

    Returns
    -------
    list
        ``[axis, traffic_gb, cct_s, ...]`` -- one table row.
    """
    framework = CCF(**ccf)
    wl = AnalyticJoinWorkload(
        n_nodes=n_nodes, scale_factor=scale_factor, zipf_s=zipf_s, skew=skew
    )
    cmp = framework.compare(wl, strategies=tuple(strategies))
    row: list = [axis]
    for s in strategies:
        row += [cmp.traffic(s) / 1e9, cmp.cct(s)]
    return row


def _figure_spec(
    config: SweepConfig,
    name: str,
    axis_name: str,
    axis_values: Sequence,
    override_key: str,
    title: str,
) -> SweepSpec:
    """Declare one figure sweep as an engine cell grid."""
    cols = [axis_name]
    for s in config.strategies:
        cols += [f"{s}_traffic_gb", f"{s}_cct_s"]
    cells = []
    for v in axis_values:
        params = dict(
            n_nodes=config.n_nodes,
            scale_factor=config.scale_factor,
            zipf_s=config.zipf_s,
            skew=config.skew,
        )
        params[override_key] = v
        cells.append(
            Cell(
                label=f"{axis_name}={v}",
                params=dict(
                    axis=v,
                    strategies=list(config.strategies),
                    ccf=_ccf_knobs(config.ccf),
                    **params,
                ),
            )
        )
    return SweepSpec(
        name=name,
        fn=_figure_cell,
        cells=cells,
        assemble=rows_to_table(title, cols),
    )


def _resolve_config(
    config: SweepConfig | None,
    quick: bool,
    scale_factor: float | None,
    n_nodes: int | None,
) -> SweepConfig:
    config = config or (SweepConfig.quick() if quick else SweepConfig())
    if scale_factor is not None:
        config.scale_factor = scale_factor
    if n_nodes is not None:
        config.n_nodes = n_nodes
    return config


def fig5_sweep(
    config: SweepConfig | None = None,
    nodes: Sequence[int] = FIG5_NODES,
    *,
    quick: bool = False,
    scale_factor: float | None = None,
    n_nodes: int | None = None,
) -> SweepSpec:
    """Figure 5's node sweep as an engine cell grid.

    Parameters
    ----------
    config:
        Sweep knobs; defaults to paper scale (or the shared ``--quick``
        scale when ``quick`` is set).
    nodes:
        The swept node counts.
    quick, scale_factor, n_nodes:
        CLI-style overrides applied on top of ``config``.

    Returns
    -------
    SweepSpec
        One cell per node count, consumed by
        :func:`repro.experiments.engine.run_sweep`.
    """
    config = _resolve_config(config, quick, scale_factor, n_nodes)
    return _figure_spec(
        config,
        "fig5",
        "nodes",
        nodes,
        "n_nodes",
        "Figure 5: traffic (GB) and communication time (s) vs number of nodes",
    )


def fig6_sweep(
    config: SweepConfig | None = None,
    zipfs: Sequence[float] = FIG6_ZIPF,
    *,
    quick: bool = False,
    scale_factor: float | None = None,
    n_nodes: int | None = None,
) -> SweepSpec:
    """Figure 6's Zipf sweep as an engine cell grid (see :func:`fig5_sweep`)."""
    config = _resolve_config(config, quick, scale_factor, n_nodes)
    return _figure_spec(
        config,
        "fig6",
        "zipf",
        zipfs,
        "zipf_s",
        "Figure 6: traffic (GB) and communication time (s) vs Zipf factor",
    )


def fig7_sweep(
    config: SweepConfig | None = None,
    skews: Sequence[float] = FIG7_SKEW,
    *,
    quick: bool = False,
    scale_factor: float | None = None,
    n_nodes: int | None = None,
) -> SweepSpec:
    """Figure 7's skew sweep as an engine cell grid (see :func:`fig5_sweep`)."""
    config = _resolve_config(config, quick, scale_factor, n_nodes)
    return _figure_spec(
        config,
        "fig7",
        "skew",
        skews,
        "skew",
        "Figure 7: traffic (GB) and communication time (s) vs skewness",
    )


def run_fig5_nodes(
    config: SweepConfig | None = None,
    nodes: Sequence[int] = FIG5_NODES,
) -> ResultTable:
    """Figure 5: vary the number of nodes (zipf = 0.8, skew = 20 %).

    Parameters
    ----------
    config:
        Sweep knobs (paper defaults when omitted).
    nodes:
        Node counts to sweep.

    Returns
    -------
    ResultTable
        One row per node count, traffic and CCT per strategy.  Serial
        engine path; ``ccf sweep fig5 --jobs N`` runs the same grid in
        parallel with caching, bit-identically.
    """
    return run_sweep(fig5_sweep(config, nodes)).table


def run_fig6_zipf(
    config: SweepConfig | None = None,
    zipfs: Sequence[float] = FIG6_ZIPF,
) -> ResultTable:
    """Figure 6: vary the Zipf factor (500 nodes, skew = 20 %).

    Parameters
    ----------
    config:
        Sweep knobs (paper defaults when omitted).
    zipfs:
        Zipf exponents to sweep.

    Returns
    -------
    ResultTable
        One row per Zipf factor, traffic and CCT per strategy.
    """
    return run_sweep(fig6_sweep(config, zipfs)).table


def run_fig7_skew(
    config: SweepConfig | None = None,
    skews: Sequence[float] = FIG7_SKEW,
) -> ResultTable:
    """Figure 7: vary the skewness (500 nodes, zipf = 0.8).

    Parameters
    ----------
    config:
        Sweep knobs (paper defaults when omitted).
    skews:
        Skew fractions to sweep.

    Returns
    -------
    ResultTable
        One row per skew point, traffic and CCT per strategy.
    """
    return run_sweep(fig7_sweep(config, skews)).table
