"""Broadcast-vs-repartition crossover experiment.

The cost-based physical-join choice (repro.analytics.compile) hinges on a
crossover: broadcasting the small side moves ``(n - 1) * |small|`` bytes
while repartitioning moves ``~|small| + |big|`` spread over ``n`` ports,
so broadcast wins for small clusters / tiny dimensions and loses as the
cluster grows.  With ``|big| = r * |small|`` the bandwidth crossover sits
near ``n = r + 1``.  This experiment sweeps the node count and reports
both plans' bandwidth-optimal CCTs plus the chooser's verdict.
"""

from __future__ import annotations

from repro.core.framework import CCF
from repro.experiments.engine import Cell, SweepSpec, rows_to_table
from repro.join.broadcast import BroadcastJoin
from repro.join.operators import DistributedJoin
from repro.join.partitioner import HashPartitioner
from repro.workloads.tpch import TPCHConfig, generate_tpch_relations

__all__ = ["crossover_sweep"]

#: Reduced grid behind ``ccf sweep crossover --quick``.
QUICK_NODES = (2, 4, 8, 16)


def _crossover_cell(*, n: int, scale_factor: float, seed: int) -> list:
    """One cluster size: cost both join plans and record the verdict.

    Parameters
    ----------
    n:
        Node count (the swept value).
    scale_factor, seed:
        TPC-H generator knobs.

    Returns
    -------
    list
        ``[n, broadcast_ms, repartition_ms, chooser]`` row.
    """
    customer, orders = generate_tpch_relations(
        TPCHConfig(n_nodes=n, scale_factor=scale_factor, skew=0.2, seed=seed)
    )
    join = DistributedJoin(
        customer,
        orders,
        partitioner=HashPartitioner(p=15 * n),
        skew_factor=50.0,
    )
    repart = CCF().plan(join, "ccf")
    bcast = BroadcastJoin(customer, orders, rate=repart.model.rate)
    b_cct = bcast.plan().cct
    return [
        n,
        b_cct * 1e3,
        repart.cct * 1e3,
        "broadcast" if b_cct < repart.cct else "repartition",
    ]


def crossover_sweep(
    *,
    nodes: tuple[int, ...] = (2, 4, 8, 12, 16, 24, 32),
    scale_factor: float = 0.002,
    seed: int = 2,
    quick: bool = False,
) -> SweepSpec:
    """Sweep node counts; compare broadcast and repartition CCTs.

    CUSTOMER (the small side) is 10x smaller than ORDERS, putting the
    theoretical crossover near n = 11.

    Parameters
    ----------
    nodes:
        Cluster sizes to sweep.
    scale_factor:
        TPC-H scale factor for the generated relations.
    seed:
        Relation-generator seed.
    quick:
        Shrink the node grid to ``QUICK_NODES``.

    Returns
    -------
    SweepSpec
        One cell per node count; the table has one row per node count
        with both plans' CCTs and the chooser's verdict.
    """
    if quick:
        nodes = QUICK_NODES
    cells = [
        Cell(
            label=f"nodes={n}",
            params=dict(n=n, scale_factor=scale_factor, seed=seed),
        )
        for n in nodes
    ]
    return SweepSpec(
        name="crossover",
        fn=_crossover_cell,
        cells=cells,
        assemble=rows_to_table(
            "Broadcast vs repartition: CCT (ms) over cluster size",
            ["nodes", "broadcast_ms", "repartition_ms", "chooser"],
            notes=(
                "ORDERS = 10 x CUSTOMER: uniform-placement theory puts the "
                "crossover near n = 11; zipf placement concentrates the "
                "broadcast send load on node 0 and pulls it a few nodes "
                "earlier",
            ),
        ),
    )
