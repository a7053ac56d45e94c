"""Partition-granularity sweep: why the paper sets p = 15 n.

The number of hash partitions ``p`` is the co-optimizer's control
resolution: with ``p = n`` each node gets one indivisible partition and
CCF has almost no room to balance; finer partitioning (the paper: "a
more fine-grained control on data assignment", p = 15 n) lets Algorithm 1
approach the fluid optimum.  Hash and Mini barely react -- their rules
don't exploit the extra freedom.  This sweep quantifies that.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.framework import CCF
from repro.core.model import ShuffleModel
from repro.experiments.engine import Cell, SweepSpec, rows_to_table
from repro.workloads.synthetic import clustered_workload

__all__ = ["psweep_sweep"]

#: Reduced grid behind ``ccf sweep psweep --quick``.
QUICK_N_NODES = 20
QUICK_MULTIPLIERS = (1, 2, 5)


def _psweep_cell(
    *,
    mult: int,
    n_nodes: int,
    total_gb: float,
    holders_per_partition: int,
    seed: int,
) -> list:
    """One granularity point: plan all strategies at p = mult * n.

    Parameters
    ----------
    mult:
        Partitions-per-node multiplier (the swept value).
    n_nodes, total_gb, holders_per_partition, seed:
        Workload knobs; the byte mass is renormalised to ``total_gb`` at
        every granularity so CCTs stay comparable.

    Returns
    -------
    list
        ``[mult, hash_cct, mini_cct, ccf_cct, ccf_solve_ms]`` row.
    """
    ccf = CCF()
    base = clustered_workload(
        n_nodes,
        mult * n_nodes,
        holders_per_partition=holders_per_partition,
        seed=seed,
    )
    # Same byte mass at every granularity, so CCTs are comparable.
    h = base.h * (total_gb * 1e9 / base.h.sum())
    model = ShuffleModel(h=h, rate=base.rate, name=f"p{mult}n")
    cmp = ccf.compare(model)
    return [
        mult,
        cmp.cct("hash"),
        cmp.cct("mini"),
        cmp.cct("ccf"),
        cmp["ccf"].solve_seconds * 1e3,
    ]


def psweep_sweep(
    *,
    n_nodes: int = 40,
    total_gb: float = 20.0,
    multipliers: Sequence[int] = (1, 2, 5, 15, 30),
    holders_per_partition: int = 3,
    seed: int = 1,
    quick: bool = False,
) -> SweepSpec:
    """CCT of each strategy as p/n grows, total data held fixed.

    Uses the clustered synthetic workload (each partition concentrated on
    a few holders) -- on the paper's statistically uniform workload every
    partition is identical and granularity cannot bind.

    Parameters
    ----------
    n_nodes:
        Cluster size.
    total_gb:
        Total byte mass, renormalised at every granularity.
    multipliers:
        Swept p/n multipliers.
    holders_per_partition:
        Holders per partition in the clustered workload.
    seed:
        Workload seed.
    quick:
        Shrink to ``QUICK_N_NODES`` / ``QUICK_MULTIPLIERS``.

    Returns
    -------
    SweepSpec
        One cell and table row per p/n multiplier.  The ``ccf_solve_ms``
        column is measured wall-clock and therefore varies run-to-run;
        all other columns are deterministic.
    """
    if quick:
        n_nodes = QUICK_N_NODES
        multipliers = QUICK_MULTIPLIERS
    cells = [
        Cell(
            label=f"p={mult}n",
            params=dict(
                mult=mult,
                n_nodes=n_nodes,
                total_gb=total_gb,
                holders_per_partition=holders_per_partition,
                seed=seed,
            ),
        )
        for mult in multipliers
    ]
    return SweepSpec(
        name="psweep",
        fn=_psweep_cell,
        cells=cells,
        assemble=rows_to_table(
            "Partition granularity: communication time (s) vs p/n",
            ["p_per_node", "hash_cct_s", "mini_cct_s", "ccf_cct_s", "ccf_solve_ms"],
            notes=(
                "paper fixes p = 15 n; finer partitioning buys CCF balance "
                "room at linear solve-time cost",
            ),
        ),
    )
