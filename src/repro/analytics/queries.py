"""Ready-made query templates over the TPC-H-like schema.

The paper's §VI names "more complex workloads (e.g., analytical queries)"
as future work; these templates exercise that direction end to end:
multi-stage plans combining filters, joins, aggregation and distinct over
the CUSTOMER/ORDERS relations our generator produces.
"""

from __future__ import annotations

import numpy as np

from repro.analytics.catalog import Catalog
from repro.analytics.logical import (
    Distinct,
    EquiJoin,
    Filter,
    GroupByKey,
    LogicalPlan,
    Scan,
)
from repro.core.checks import at_least
from repro.workloads.tpch import TPCHConfig, generate_tpch_relations

__all__ = [
    "build_tpch_catalog",
    "orders_per_customer",
    "active_customer_orders",
    "distinct_buyers",
]


def build_tpch_catalog(config: TPCHConfig) -> Catalog:
    """Generate CUSTOMER/ORDERS and register them in a catalog."""
    customer, orders = generate_tpch_relations(config)
    catalog = Catalog()
    catalog.register("customer", customer)
    catalog.register("orders", orders)
    return catalog


def orders_per_customer() -> LogicalPlan:
    """``SELECT custkey, count(*) FROM customer JOIN orders GROUP BY custkey``.

    The paper's evaluation join, finished with the aggregation the paper
    says its techniques extend to.
    """
    return GroupByKey(
        child=EquiJoin(left=Scan("customer"), right=Scan("orders"))
    )


def active_customer_orders(*, key_modulus: int = 3) -> LogicalPlan:
    """A selective join: only customers whose key passes a filter.

    ``SELECT * FROM customer c JOIN orders o ON ... WHERE c.key % m = 0``
    -- models a dimension-table predicate pushed below the join.
    """
    at_least("key_modulus", key_modulus, 1)

    def pred(keys: np.ndarray) -> np.ndarray:
        return keys % key_modulus == 0

    return EquiJoin(
        left=Filter(
            child=Scan("customer"),
            predicate=pred,
            selectivity=1.0 / key_modulus,
            label=f"key % {key_modulus} == 0",
        ),
        right=Scan("orders"),
    )


def distinct_buyers() -> LogicalPlan:
    """``SELECT DISTINCT custkey FROM orders`` -- the duplicate-elimination
    operator over the fact table."""
    return Distinct(child=Scan("orders"))
