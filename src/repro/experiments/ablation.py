"""Ablation studies: scheduler disciplines and Algorithm 1 design choices.

Two studies beyond the paper's headline figures:

* **Scheduler ablation** -- the same CCF plan executed under every
  discipline of the simulator (fair sharing, FIFO, SCF, NCF, SEBF,
  D-CLAS, sequential) on a multi-coflow workload, quantifying how much of
  CCF's win survives a non-optimal network layer (paper §II-C's point in
  reverse).
* **Heuristic ablation** -- Algorithm 1 with its two design choices
  toggled: the descending-size partition ordering (line 1) and the
  locality tie-break (our addition, DESIGN.md §4).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.framework import CCF
from repro.core.heuristic import ccf_heuristic
from repro.experiments.engine import Cell, SweepSpec, rows_to_table
from repro.network.fabric import Fabric
from repro.network.schedulers import make_scheduler
from repro.network.simulator import CoflowSimulator
from repro.workloads.analytic import AnalyticJoinWorkload

__all__ = [
    "scheduler_ablation_sweep",
    "heuristic_ablation_sweep",
]

ALL_SCHEDULERS = ("fair", "wss", "fifo", "scf", "ncf", "sebf", "dclas", "sequential")


def _scheduler_cell(
    *,
    strategy: str,
    schedulers: Sequence[str],
    n_nodes: int,
    scale_factor: float,
    n_jobs: int,
    inter_arrival: float,
) -> list:
    """One strategy row: run its plan under every scheduling discipline.

    Parameters
    ----------
    strategy:
        Assignment strategy whose plan is executed ("hash"/"mini"/"ccf").
    schedulers:
        Disciplines forming the row's columns, in order.
    n_nodes, scale_factor, n_jobs, inter_arrival:
        Workload and stream knobs.

    Returns
    -------
    list
        ``[strategy, avg_cct_per_scheduler...]`` row.
    """
    ccf = CCF()
    wl = AnalyticJoinWorkload(
        n_nodes=n_nodes, scale_factor=scale_factor, partitions=4 * n_nodes
    )
    plan = ccf.plan(wl, strategy)
    fabric = Fabric(n_ports=n_nodes, rate=plan.model.rate)
    row: list = [strategy]
    for sched in schedulers:
        coflows = [
            plan.to_coflow(arrival_time=j * inter_arrival) for j in range(n_jobs)
        ]
        sim = CoflowSimulator(fabric, make_scheduler(sched))
        res = sim.run(coflows)
        row.append(res.average_cct)
    return row


def scheduler_ablation_sweep(
    *,
    n_nodes: int = 20,
    scale_factor: float = 0.5,
    n_jobs: int = 4,
    inter_arrival: float = 2.0,
    schedulers: Sequence[str] = ALL_SCHEDULERS,
    strategies: Sequence[str] = ("hash", "mini", "ccf"),
    quick: bool = False,
) -> SweepSpec:
    """Average CCT of a stream of join coflows under each discipline.

    ``n_jobs`` identical joins (one per strategy row) arrive
    ``inter_arrival`` seconds apart, contending for the fabric -- the
    online scenario Varys/Aalo target.  The ``sequential`` column shows
    the uncoordinated worst case.

    Parameters
    ----------
    n_nodes, scale_factor:
        Workload size knobs.
    n_jobs, inter_arrival:
        Stream shape: job count and arrival spacing in seconds.
    schedulers:
        Disciplines forming the columns.
    strategies:
        Assignment strategies forming the rows.
    quick:
        Shrink the workload (10 nodes, SF 0.2) and drop to four
        disciplines for smoke runs.

    Returns
    -------
    SweepSpec
        One cell per strategy row; the table is the strategy x scheduler
        matrix of average CCTs.
    """
    if quick:
        n_nodes, scale_factor = 10, 0.2
        schedulers = ("fair", "fifo", "sebf", "dclas")
    cells = [
        Cell(
            label=f"strategy={s}",
            params=dict(
                strategy=s,
                schedulers=list(schedulers),
                n_nodes=n_nodes,
                scale_factor=scale_factor,
                n_jobs=n_jobs,
                inter_arrival=inter_arrival,
            ),
        )
        for s in strategies
    ]
    return SweepSpec(
        name="ablation-sched",
        fn=_scheduler_cell,
        cells=cells,
        assemble=rows_to_table(
            "Scheduler ablation: average CCT (s) of a coflow stream",
            ["strategy", *schedulers],
            notes=(
                f"{n_jobs} identical join coflows arriving every {inter_arrival}s",
            ),
        ),
    )


def _heuristic_cell(
    *,
    sort_partitions: bool,
    locality_tiebreak: bool,
    n_nodes: int,
    partitions: int,
    seed: int,
) -> list:
    """One toggle combination of Algorithm 1.

    Parameters
    ----------
    sort_partitions:
        Keep the descending-size partition ordering (line 1).
    locality_tiebreak:
        Keep the locality tie-break (DESIGN.md §4).
    n_nodes, partitions, seed:
        Log-normal workload knobs.

    Returns
    -------
    list
        ``[sort, locality, T_gb, cct_s, traffic_gb]`` row.
    """
    from repro.workloads.synthetic import lognormal_workload

    model = lognormal_workload(n_nodes, partitions, seed=seed)
    dest = ccf_heuristic(
        model,
        sort_partitions=sort_partitions,
        locality_tiebreak=locality_tiebreak,
    )
    m = model.evaluate(dest)
    return [
        sort_partitions,
        locality_tiebreak,
        m.bottleneck_bytes / 1e9,
        m.cct,
        m.traffic / 1e9,
    ]


def heuristic_ablation_sweep(
    *,
    n_nodes: int = 60,
    partitions: int = 900,
    seed: int = 7,
    quick: bool = False,
) -> SweepSpec:
    """Algorithm 1 with sorting / locality tie-break toggled.

    Uses a heterogeneous workload (log-normal chunk sizes with many empty
    chunks) -- on the paper's statistically uniform workload every
    partition looks alike and the toggles cannot bind.

    Parameters
    ----------
    n_nodes, partitions:
        Workload shape.
    seed:
        Log-normal workload seed.
    quick:
        Shrink to 20 nodes / 100 partitions.

    Returns
    -------
    SweepSpec
        Four cells, in (sort, locality) order (T,T), (T,F), (F,T), (F,F).
    """
    if quick:
        n_nodes, partitions = 20, 100
    cells = [
        Cell(
            label=f"sort={sort_partitions} locality={locality}",
            params=dict(
                sort_partitions=sort_partitions,
                locality_tiebreak=locality,
                n_nodes=n_nodes,
                partitions=partitions,
                seed=seed,
            ),
        )
        for sort_partitions in (True, False)
        for locality in (True, False)
    ]
    return SweepSpec(
        name="ablation-heuristic",
        fn=_heuristic_cell,
        cells=cells,
        assemble=rows_to_table(
            "Algorithm 1 ablation: partition ordering and locality tie-break",
            ["sort_partitions", "locality_tiebreak", "T_gb", "cct_s", "traffic_gb"],
        ),
    )
