"""Tuple-level TPC-H-like workload generator (paper §IV-A2).

Generates the CUSTOMER and ORDERS relations of the paper's join

    select * from CUSTOMER C join ORDER O on C.CUSTKEY = O.CUSTKEY

with TPC-H row counts (150 K customers and 1.5 M orders per unit of scale
factor; the paper's SF = 600 gives 90 M / 900 M), uniform foreign keys,
zipfian node placement with fixed ranking, and skew injected by re-keying
a random fraction of ORDERS to CUSTKEY = 1 -- exactly the paper's recipe
("we randomly choose 20% of the tuples and set their key to 1").

This path materializes real key arrays, so it is meant for small scale
factors (tests, examples); use
:class:`repro.workloads.analytic.AnalyticJoinWorkload` for paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.checks import in_range, positive
from repro.join.relation import DistributedRelation
from repro.workloads.analytic import CUSTOMERS_PER_SF, ORDERS_PER_SF
from repro.workloads.zipf import place_tuples, zipf_weights

__all__ = [
    "TPCHConfig",
    "generate_tpch_relations",
    "generate_tpch_keyed",
    "inject_skew",
    "LINEITEMS_PER_ORDER",
]

#: TPC-H averages four line items per order.
LINEITEMS_PER_ORDER = 4


def inject_skew(
    keys: np.ndarray,
    *,
    skew: float,
    skewed_key: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Re-key a uniformly random ``skew`` fraction of tuples to ``skewed_key``.

    Returns a new array; the input is not modified.
    """
    in_range("skew", skew, 0, 1, "[)")
    out = np.asarray(keys, dtype=np.int64).copy()
    if skew == 0 or out.size == 0:
        return out
    m = int(round(skew * out.size))
    idx = rng.choice(out.size, size=m, replace=False)
    out[idx] = skewed_key
    return out


@dataclass
class TPCHConfig:
    """Parameters of the tuple-level generator.

    Defaults mirror the paper except ``scale_factor``, which defaults to a
    laptop-friendly value; set 600 to match the paper (not advisable in
    memory).
    """

    n_nodes: int = 8
    scale_factor: float = 0.001
    payload_bytes: float = 1000.0
    zipf_s: float = 0.8
    skew: float = 0.2
    skewed_key: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        positive("n_nodes", self.n_nodes)
        positive("scale_factor", self.scale_factor)
        in_range("skew", self.skew, 0, 1, "[)")

    @property
    def n_customers(self) -> int:
        return max(1, int(round(CUSTOMERS_PER_SF * self.scale_factor)))

    @property
    def n_orders(self) -> int:
        return max(1, int(round(ORDERS_PER_SF * self.scale_factor)))


def generate_tpch_relations(
    config: TPCHConfig,
    *,
    rng: np.random.Generator | None = None,
) -> tuple[DistributedRelation, DistributedRelation]:
    """Generate (CUSTOMER, ORDERS) distributed relations.

    CUSTOMER holds every key in ``1..n_customers`` exactly once; ORDERS
    draws its CUSTKEY foreign keys uniformly, then skew is injected.  Both
    relations place each tuple on a node drawn from the zipf weights, so
    the expected chunk matrix matches the analytic workload.

    ``rng`` accepts an already-spawned generator (service/sweep seeding
    via ``derive_seed``); omitted, ``config.seed`` drives the draws.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    w = zipf_weights(config.n_nodes, config.zipf_s)

    cust_keys = np.arange(1, config.n_customers + 1, dtype=np.int64)
    cust_nodes = place_tuples(cust_keys.size, w, rng)
    customer = DistributedRelation.from_placement(
        cust_keys,
        cust_nodes,
        config.n_nodes,
        payload_bytes=config.payload_bytes,
        name="CUSTOMER",
    )

    order_keys = rng.integers(
        1, config.n_customers + 1, size=config.n_orders, dtype=np.int64
    )
    order_keys = inject_skew(
        order_keys, skew=config.skew, skewed_key=config.skewed_key, rng=rng
    )
    order_nodes = place_tuples(order_keys.size, w, rng)
    orders = DistributedRelation.from_placement(
        order_keys,
        order_nodes,
        config.n_nodes,
        payload_bytes=config.payload_bytes,
        name="ORDERS",
    )
    return customer, orders


def generate_tpch_keyed(
    config: TPCHConfig, *, rng: np.random.Generator | None = None
):
    """Generate the keyed three-table schema: CUSTOMER, ORDERS, LINEITEM.

    Beyond the paper's two-table join, this models the chained-key case:
    ORDERS carries both a unique ``orderkey`` and a ``custkey`` foreign
    key (skew-injected as usual); LINEITEM references ``orderkey`` with
    :data:`LINEITEMS_PER_ORDER` rows per order on average.  Returns a
    dict of :class:`~repro.join.multikey.KeyedRelation` by table name.
    """
    from repro.join.multikey import KeyedRelation

    if rng is None:
        rng = np.random.default_rng(config.seed)
    w = zipf_weights(config.n_nodes, config.zipf_s)

    cust_keys = np.arange(1, config.n_customers + 1, dtype=np.int64)
    customer = KeyedRelation.from_rows(
        {"custkey": cust_keys},
        place_tuples(cust_keys.size, w, rng),
        config.n_nodes,
        payload_bytes=config.payload_bytes,
        name="CUSTOMER",
    )

    order_keys = np.arange(1, config.n_orders + 1, dtype=np.int64)
    order_cust = rng.integers(
        1, config.n_customers + 1, size=config.n_orders, dtype=np.int64
    )
    order_cust = inject_skew(
        order_cust, skew=config.skew, skewed_key=config.skewed_key, rng=rng
    )
    orders = KeyedRelation.from_rows(
        {"orderkey": order_keys, "custkey": order_cust},
        place_tuples(order_keys.size, w, rng),
        config.n_nodes,
        payload_bytes=config.payload_bytes,
        name="ORDERS",
    )

    n_lineitems = LINEITEMS_PER_ORDER * config.n_orders
    li_order = rng.integers(
        1, config.n_orders + 1, size=n_lineitems, dtype=np.int64
    )
    lineitem = KeyedRelation.from_rows(
        {"orderkey": li_order},
        place_tuples(n_lineitems, w, rng),
        config.n_nodes,
        payload_bytes=config.payload_bytes,
        name="LINEITEM",
    )
    return {"customer": customer, "orders": orders, "lineitem": lineitem}
