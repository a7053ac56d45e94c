"""The CCF shuffle model: chunk matrix, initial flows, and plan evaluation.

Notation follows the paper (Table I):

* ``n`` computing nodes, ``p`` hash partitions.
* ``h[i, k]`` -- bytes of partition ``k`` resident on node ``i``.
* ``x[j, k]`` -- binary decision: partition ``k`` is assigned to node ``j``
  (here represented densely as ``dest[k] = j``).
* ``v0[i, j]`` -- initial flow volumes fixed *before* the assignment (the
  broadcast traffic produced by partial-duplication skew handling, §III-C).

For an assignment the induced flow volume is
``v[i, j] = v0[i, j] + sum_k h[i, k] * x[j, k]  (i != j)`` and the paper's
objective (model (3)) is ``T = max(max_i send_i, max_j recv_j)`` over port
byte loads; under a non-blocking switch with uniform port rate ``R`` the
bandwidth-optimal CCT is exactly ``T / R``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.checks import finite_entries, positive
from repro.network.fabric import DEFAULT_PORT_RATE
from repro.network.flow import Coflow, coflow_from_matrix

__all__ = ["ShuffleModel", "PlanMetrics", "group_by_destination"]


#: Bytes of ``h``'s columns that :func:`group_by_destination` gathers at
#: once.  The block and the rows it is gathered from stay in a core's L2
#: cache; 512 KB beat 2 MB blocks by about 15 % at n = 250 and 1000.
_GATHER_BLOCK_BYTES = 1 << 19


def group_by_destination(h: np.ndarray, dest: np.ndarray) -> np.ndarray:
    """Aggregate chunk columns by destination: ``M[i, j] = sum_{k: dest[k]=j} h[i, k]``.

    Vectorized with a stable sort + ``reduceat`` (O(n*p + p log p)) instead
    of a dense one-hot matmul (O(n*p*n)), which matters at paper scale
    (n=1000, p=15000).

    The columns are gathered into sorted order a block of rows (about
    512 KB) at a time rather than as one ``(n, p)`` copy, and not at all
    when ``dest`` is already non-decreasing.  The bits do not depend on
    the blocking: ``reduceat`` sums each (row, group) segment on its own,
    and numpy's pairwise sum of a segment depends only on that segment's
    values, in order.

    The gather passes ``mode="clip"``: under the default ``"raise"``
    numpy stages every ``out=`` gather through a temporary buffer (so
    that an out-of-range index leaves ``out`` untouched), which costs a
    second copy of each block.  ``order`` is an argsort of ``p`` values,
    a permutation of ``0..p-1``, so there is nothing to clip.
    """
    n, p = h.shape
    out = np.zeros((n, n))
    if p == 0:
        return out
    if (dest[1:] >= dest[:-1]).all():
        order = None
        sorted_dest = dest
    else:
        order = np.argsort(dest, kind="stable")
        sorted_dest = dest[order]
    # Start index of each destination group in the sorted order.
    starts = np.flatnonzero(np.r_[True, sorted_dest[1:] != sorted_dest[:-1]])
    groups = sorted_dest[starts]
    if order is None:
        out[:, groups] = np.add.reduceat(h, starts, axis=1)
        return out
    rows = max(1, _GATHER_BLOCK_BYTES // (h.itemsize * p))
    buf = np.empty((min(rows, n), p), dtype=h.dtype)
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        block = np.take(h[i0:i1], order, axis=1, out=buf[: i1 - i0],
                        mode="clip")
        out[i0:i1, groups] = np.add.reduceat(block, starts, axis=1)
    return out


@dataclass
class PlanMetrics:
    """Evaluation of one assignment under the CCF model.

    Attributes
    ----------
    traffic:
        Total bytes crossing the network (off-diagonal volume), the metric
        the ``Mini`` strategy minimizes (paper Fig. 5(a)/6(a)/7(a)).
    send_loads, recv_loads:
        Per-port byte loads including initial flows -- the paper's
        ``C_i`` / ``C_j`` (constraints (3.1)/(3.2)).
    bottleneck_bytes:
        ``T = max(max send, max recv)``, the objective of model (3).
    cct:
        Bandwidth-optimal coflow completion time ``T / rate`` in seconds
        (Fig. 5(b)/6(b)/7(b)).
    local_bytes:
        Bytes that stayed on their node (data locality exploited).
    """

    traffic: float
    send_loads: np.ndarray
    recv_loads: np.ndarray
    bottleneck_bytes: float
    cct: float
    local_bytes: float

    def summary(self) -> str:
        """One-line human-readable summary (GB / seconds)."""
        return (
            f"traffic={self.traffic / 1e9:.1f} GB, "
            f"T={self.bottleneck_bytes / 1e9:.2f} GB, "
            f"CCT={self.cct:.1f} s, local={self.local_bytes / 1e9:.1f} GB"
        )


@dataclass
class ShuffleModel:
    """Inputs of the co-optimization problem for one distributed operator.

    Parameters
    ----------
    h:
        Chunk-size matrix, shape ``(n, p)``, non-negative bytes.
    v0:
        Initial flow volumes, shape ``(n, n)``, zero diagonal.  Defaults to
        no initial flows.  Produced by skew handling (broadcast traffic).
    rate:
        Uniform port rate in bytes/second (``R_l`` in the paper); default
        is CoflowSim's 128 MB/s.
    local_bytes_pre:
        Bytes already pinned local by pre-processing (skewed tuples kept in
        place); accounted in :attr:`PlanMetrics.local_bytes` only.
    extra_send, extra_recv:
        Residual per-port byte loads from *other* traffic already on the
        fabric (in-flight shuffles of earlier operators -- the online
        extension).  They tighten constraints (3.1)/(3.2) exactly like
        initial flows but carry no pairwise structure and are not counted
        as this operator's traffic.
    """

    h: np.ndarray
    v0: np.ndarray | None = None
    rate: float = DEFAULT_PORT_RATE
    local_bytes_pre: float = 0.0
    name: str = ""
    extra_send: np.ndarray | None = None
    extra_recv: np.ndarray | None = None
    _partition_sizes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.h = np.asarray(self.h, dtype=float)
        if self.h.ndim != 2:
            raise ValueError(f"h must be 2-D (n, p), got shape {self.h.shape}")
        # ``not >= 0`` also catches NaN; inf shows in its column's sum,
        # so neither check adds a pass over the (n, p) matrix.
        if not (self.h >= 0).all():
            raise ValueError("chunk sizes must be non-negative")
        n = self.h.shape[0]
        if self.v0 is None:
            self.v0 = np.zeros((n, n))
        else:
            self.v0 = np.asarray(self.v0, dtype=float)
            if self.v0.shape != (n, n):
                raise ValueError(f"v0 must have shape ({n}, {n})")
            finite_entries("initial flow volumes v0", self.v0)
            if np.diagonal(self.v0).any():
                raise ValueError("v0 diagonal (local flows) must be zero")
        positive("rate", self.rate)
        for attr in ("extra_send", "extra_recv"):
            val = getattr(self, attr)
            if val is None:
                setattr(self, attr, np.zeros(n))
            else:
                val = np.asarray(val, dtype=float)
                if val.shape != (n,):
                    raise ValueError(f"{attr} must have shape ({n},)")
                setattr(self, attr, finite_entries(attr, val))
        self._partition_sizes = self.h.sum(axis=0)
        if not np.isfinite(self._partition_sizes).all():
            raise ValueError("chunk sizes must be finite")

    @property
    def n(self) -> int:
        """Number of computing nodes."""
        return int(self.h.shape[0])

    @property
    def p(self) -> int:
        """Number of data partitions."""
        return int(self.h.shape[1])

    @property
    def partition_sizes(self) -> np.ndarray:
        """``S_k = sum_i h[i, k]`` -- total size of each partition (bytes)."""
        return self._partition_sizes

    @property
    def total_bytes(self) -> float:
        """All shuffle-eligible bytes plus initial flow volume."""
        return float(self.h.sum() + self.v0.sum())

    def initial_loads(self) -> tuple[np.ndarray, np.ndarray]:
        """Fixed (send, recv) port loads: initial flows plus residuals."""
        return (
            self.v0.sum(axis=1) + self.extra_send,
            self.v0.sum(axis=0) + self.extra_recv,
        )

    def validate_assignment(self, dest: np.ndarray) -> np.ndarray:
        """Check an assignment vector and return it as an int64 array."""
        dest = np.asarray(dest)
        if dest.shape != (self.p,):
            raise ValueError(f"assignment must have shape ({self.p},), got {dest.shape}")
        if not np.issubdtype(dest.dtype, np.integer):
            raise ValueError("assignment must be integral")
        if dest.size and ((dest < 0) | (dest >= self.n)).any():
            raise ValueError(f"assignment values must be in [0, {self.n})")
        return dest.astype(np.int64)

    def volume_matrix(self, dest: np.ndarray) -> np.ndarray:
        """Full ``(n, n)`` flow-volume matrix for an assignment.

        ``V[i, j]`` = bytes node ``i`` sends to node ``j``; the diagonal
        holds the bytes that stay local (not network traffic).
        """
        dest = self.validate_assignment(dest)
        return group_by_destination(self.h, dest) + self.v0

    def evaluate(self, dest: np.ndarray) -> PlanMetrics:
        """Compute :class:`PlanMetrics` for an assignment (vectorized)."""
        vol = self.volume_matrix(dest)
        diag = np.diagonal(vol).copy()
        send = vol.sum(axis=1) - diag + self.extra_send
        recv = vol.sum(axis=0) - diag + self.extra_recv
        bottleneck = float(max(send.max(initial=0.0), recv.max(initial=0.0)))
        return PlanMetrics(
            traffic=float(vol.sum() - diag.sum()),
            send_loads=send,
            recv_loads=recv,
            bottleneck_bytes=bottleneck,
            cct=bottleneck / self.rate,
            local_bytes=float(diag.sum() + self.local_bytes_pre),
        )

    def to_coflow(
        self, dest: np.ndarray, *, arrival_time: float = 0.0, name: str | None = None
    ) -> Coflow:
        """Materialize the assignment's shuffle as a :class:`Coflow`."""
        vol = self.volume_matrix(dest)
        return coflow_from_matrix(
            vol, arrival_time=arrival_time, name=name if name is not None else self.name
        )

    def cct_hetero(
        self,
        dest: np.ndarray,
        egress_rates: np.ndarray,
        ingress_rates: np.ndarray,
    ) -> float:
        """Bandwidth-optimal CCT under heterogeneous per-port rates.

        Generalizes ``T / R`` to ``max(max_i send_i/R^out_i,
        max_j recv_j/R^in_j)`` -- the closed form for a single coflow on
        a non-blocking switch with per-NIC speeds.
        """
        egress_rates = np.asarray(egress_rates, dtype=float)
        ingress_rates = np.asarray(ingress_rates, dtype=float)
        for nm, arr in (("egress", egress_rates), ("ingress", ingress_rates)):
            if arr.shape != (self.n,):
                raise ValueError(f"{nm}_rates must have shape ({self.n},)")
            finite_entries(f"{nm}_rates", arr, strict=True)
        m = self.evaluate(dest)
        return float(
            max(
                (m.send_loads / egress_rates).max(initial=0.0),
                (m.recv_loads / ingress_rates).max(initial=0.0),
            )
        )

    def traffic_lower_bound(self) -> float:
        """Minimum achievable traffic: every partition keeps its largest chunk.

        This is exactly what ``Mini`` achieves, since partitions are
        independent in the traffic objective.
        """
        if self.p == 0:
            return float(self.v0.sum())
        return float(
            (self.partition_sizes - self.h.max(axis=0)).sum() + self.v0.sum()
        )

    def bottleneck_lower_bound(self) -> float:
        """A valid lower bound on ``T`` for any assignment.

        Combines two relaxations: (a) total traffic is at least the Mini
        traffic and is spread over at most ``n`` receiving ports, so some
        port ingests at least the mean; (b) the initial flows ``v0`` are
        fixed, so their port loads bound ``T`` from below.
        """
        send0, recv0 = self.initial_loads()
        mean_recv = (self.traffic_lower_bound()) / self.n if self.n else 0.0
        return float(max(mean_recv, send0.max(initial=0.0), recv0.max(initial=0.0)))
