"""Analytical-query benchmark: the paper's future-work workload class.

Runs the three query templates of :mod:`repro.analytics.queries` under
Hash / Mini / CCF at tuple level and reports per-query communication
time, traffic and result sizes -- extending the evaluation from a single
join to whole queries (paper §VI: "extending our framework model to more
complex workloads (e.g., analytical queries)").
"""

from __future__ import annotations

from repro.analytics.compile import QueryExecutor
from repro.analytics.queries import (
    active_customer_orders,
    build_tpch_catalog,
    distinct_buyers,
    orders_per_customer,
)
from repro.experiments.engine import Cell, SweepSpec, rows_to_table
from repro.workloads.tpch import TPCHConfig

__all__ = ["queries_sweep"]

QUERIES = {
    "orders_per_customer": orders_per_customer,
    "active_customer_orders": active_customer_orders,
    "distinct_buyers": distinct_buyers,
}

#: Reduced scale behind ``ccf sweep queries --quick``.
QUICK_SCALE_FACTOR = 0.01


def _query_cell(
    *,
    query: str,
    n_nodes: int,
    scale_factor: float,
    skew: float,
    seed: int,
    strategies: list,
) -> list:
    """One query row: execute the template under every strategy.

    Parameters
    ----------
    query:
        Name of the query template in :data:`QUERIES` (the swept value).
    n_nodes, scale_factor, skew, seed:
        TPC-H catalog knobs; the catalog is rebuilt deterministically in
        the worker.
    strategies:
        Strategy names forming the per-strategy column pairs, in order.

    Returns
    -------
    list
        ``[query, rows, comm_s/traffic_mb per strategy...]`` row.

    Raises
    ------
    AssertionError
        If the strategies disagree on the query's result rows.
    """
    catalog = build_tpch_catalog(
        TPCHConfig(n_nodes=n_nodes, scale_factor=scale_factor, skew=skew, seed=seed)
    )
    executor = QueryExecutor(catalog, skew_factor=50.0)
    builder = QUERIES[query]
    row: list = [query]
    rows_value: int | None = None
    metrics: list[float] = []
    for s in strategies:
        result = executor.execute(builder(), strategy=s)
        if rows_value is None:
            rows_value = result.rows
        elif result.rows != rows_value:
            raise AssertionError(
                f"{query}: strategies disagree on the result "
                f"({result.rows} vs {rows_value})"
            )
        metrics += [
            result.total_communication_seconds,
            result.total_traffic / 1e6,
        ]
    row.append(rows_value)
    row.extend(metrics)
    return row


def queries_sweep(
    *,
    n_nodes: int = 8,
    scale_factor: float = 0.02,
    skew: float = 0.2,
    seed: int = 1,
    strategies: tuple[str, ...] = ("hash", "mini", "ccf"),
    quick: bool = False,
) -> SweepSpec:
    """Execute every query template under every strategy.

    Parameters
    ----------
    n_nodes, scale_factor, skew, seed:
        TPC-H catalog knobs.
    strategies:
        Strategies forming the per-query column pairs.
    quick:
        Drop the scale factor to ``QUICK_SCALE_FACTOR``.

    Returns
    -------
    SweepSpec
        One cell per query template, in :data:`QUERIES` order; the table
        has one row per template with result rows and per-strategy
        communication time / traffic.
    """
    if quick:
        scale_factor = QUICK_SCALE_FACTOR
    cols = ["query", "rows"]
    for s in strategies:
        cols += [f"{s}_comm_s", f"{s}_traffic_mb"]
    cells = [
        Cell(
            label=f"query={name}",
            params=dict(
                query=name,
                n_nodes=n_nodes,
                scale_factor=scale_factor,
                skew=skew,
                seed=seed,
                strategies=list(strategies),
            ),
        )
        for name in QUERIES
    ]
    return SweepSpec(
        name="queries",
        fn=_query_cell,
        cells=cells,
        assemble=rows_to_table(
            "Analytical queries under Hash / Mini / CCF (tuple level)",
            cols,
            notes=(
                f"TPC-H SF {scale_factor} on {n_nodes} nodes, skew "
                f"{skew:.0%}; identical results across strategies are "
                "asserted, not assumed",
            ),
        ),
    )
