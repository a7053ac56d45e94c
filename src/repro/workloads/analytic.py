"""Closed-form workload generator at full paper scale.

The evaluation's metrics depend on the data only through the chunk matrix
``h[i, k]`` (plus the skew-handling byte split), and the paper's generator
is fully statistical: uniform join keys, zipfian per-node placement with a
fixed ranking, and a fraction of ORDERS re-keyed to CUSTKEY = 1.  At
SF = 600 that is ~990 million tuples; materializing them is pointless when
the expected chunk matrix is available in closed form:

* every partition holds ``V_cust/p + (1 - skew) * V_ord / p`` bytes of
  non-skewed data, split over nodes by the zipf weights ``w``;
* the skewed partition ``k* = skewed_key mod p`` additionally holds
  ``skew * V_ord`` bytes, also split by ``w`` (the re-keyed tuples stay on
  their original nodes);
* partial duplication keeps those ``skew * V_ord`` bytes local and
  broadcasts the ``V_cust / n_customer_keys`` bytes of CUSTOMER tuples
  whose key is the skewed key.

``tests/test_workload_agreement.py`` verifies that the tuple-level
generator converges to these matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.checks import in_range, positive
from repro.core.model import ShuffleModel
from repro.core.skew import PartialDuplication
from repro.network.fabric import DEFAULT_PORT_RATE
from repro.workloads.zipf import zipf_weights

__all__ = ["AnalyticJoinWorkload"]

#: TPC-H row counts per unit scale factor.
CUSTOMERS_PER_SF = 150_000
ORDERS_PER_SF = 1_500_000


@dataclass
class AnalyticJoinWorkload:
    """Expected-value model of the paper's CUSTOMER ⋈ ORDERS workload.

    Parameters
    ----------
    n_nodes:
        Number of computing nodes.
    partitions:
        Number of hash partitions ``p``; the paper uses ``15 * n`` for
        fine-grained assignment control (default when ``None``).
    scale_factor:
        TPC-H scale factor; 600 reproduces the paper (90 M + 900 M tuples).
    payload_bytes:
        Bytes per tuple (paper: 1000, giving ~1 TB input at SF 600).
    zipf_s:
        Zipf exponent of per-node chunk sizes (paper default 0.8).
    skew:
        Fraction of ORDERS tuples re-keyed to ``skewed_key`` (paper
        default 0.2).
    skewed_key:
        The hot key (paper: CUSTKEY = 1).
    rate:
        Port rate in bytes/second for derived models.
    """

    n_nodes: int
    partitions: int | None = None
    scale_factor: float = 600.0
    payload_bytes: float = 1000.0
    zipf_s: float = 0.8
    skew: float = 0.2
    skewed_key: int = 1
    rate: float = DEFAULT_PORT_RATE
    name: str = "tpch-analytic"
    _w: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        positive("n_nodes", self.n_nodes)
        if self.partitions is None:
            self.partitions = 15 * self.n_nodes
        positive("partitions", self.partitions)
        in_range("skew", self.skew, 0, 1, "[)")
        positive("scale_factor", self.scale_factor)
        positive("payload_bytes", self.payload_bytes)
        self._w = zipf_weights(self.n_nodes, self.zipf_s)

    # -- derived sizes -------------------------------------------------
    @property
    def n_customer_tuples(self) -> float:
        return CUSTOMERS_PER_SF * self.scale_factor

    @property
    def n_order_tuples(self) -> float:
        return ORDERS_PER_SF * self.scale_factor

    @property
    def customer_bytes(self) -> float:
        return self.n_customer_tuples * self.payload_bytes

    @property
    def order_bytes(self) -> float:
        return self.n_order_tuples * self.payload_bytes

    @property
    def total_bytes(self) -> float:
        """Total input size (paper: ~1 TB at SF 600)."""
        return self.customer_bytes + self.order_bytes

    @property
    def node_weights(self) -> np.ndarray:
        """Zipf placement weights (rank 0 = heaviest node)."""
        return self._w

    @property
    def skewed_partition(self) -> int:
        """Index of the partition holding the hot key."""
        return self.skewed_key % int(self.partitions)

    # -- chunk matrices -------------------------------------------------
    def chunk_matrix(self) -> np.ndarray:
        """Expected full chunk matrix ``h[i, k]`` in bytes, shape (n, p)."""
        p = int(self.partitions)
        base_pp = (self.customer_bytes + (1 - self.skew) * self.order_bytes) / p
        h = np.outer(self._w, np.full(p, base_pp))
        h[:, self.skewed_partition] += self._w * (self.skew * self.order_bytes)
        return h

    # -- ShuffleWorkload protocol ---------------------------------------
    def shuffle_model(self, *, skew_handling: bool) -> ShuffleModel:
        """The co-optimization input, with or without partial duplication."""
        full = self.chunk_matrix()
        if not skew_handling or self.skew == 0:
            return ShuffleModel(h=full, rate=self.rate, name=self.name)
        # Partial duplication touches only the hot key's partition: its
        # skewed ORDERS bytes stay local, its CUSTOMER rows are broadcast.
        hot_customer_bytes = self.customer_bytes / self.n_customer_tuples
        result = PartialDuplication().apply(
            full,
            [self.skewed_partition],
            local=(self._w * (self.skew * self.order_bytes))[:, None],
            broadcast=(self._w * hot_customer_bytes)[:, None],
            rate=self.rate,
            name=self.name,
        )
        return result.model
