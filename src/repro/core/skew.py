"""Partial-duplication skew handling (paper §III-C; Xu et al., SIGMOD'08).

Data skew -- a few join keys carrying a large share of the tuples -- turns
hash-based redistribution into a network hotspot.  Partial duplication
avoids moving the skewed tuples at all:

* skewed tuples of the *large* relation stay where they are (a "local
  move" costs nothing);
* the few matching tuples of the *small* relation are broadcast to every
  other node so the local joins remain complete.

In the CCF model this shows up as (a) a reduced chunk matrix ``h'`` (the
skewed and broadcast bytes leave the assignment problem) and (b) initial
flow volumes ``v0[i, j] = b_i`` (node ``i`` broadcasts its matching
small-relation bytes to every other node), which constraint (1.2') treats
as the initial status of each flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import ShuffleModel

__all__ = ["PartialDuplication", "SkewHandlingResult", "detect_skewed_keys"]


def detect_skewed_keys(
    key_counts: dict[int, int] | np.ndarray, *, factor: float = 100.0
) -> np.ndarray:
    """Identify skewed keys: frequency above ``factor`` times the median.

    The median is used as the typical-frequency estimate because the hot
    keys themselves would inflate a mean and mask moderate skew.

    Parameters
    ----------
    key_counts:
        Either a mapping ``key -> count`` or an array where the index is
        the key and the value its count.
    factor:
        Multiple of the median frequency above which a key is skewed.

    Returns
    -------
    numpy.ndarray
        Sorted array of skewed key values.
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    if isinstance(key_counts, dict):
        keys = np.fromiter(key_counts.keys(), dtype=np.int64, count=len(key_counts))
        counts = np.fromiter(key_counts.values(), dtype=np.int64, count=len(key_counts))
    else:
        counts = np.asarray(key_counts)
        keys = np.arange(counts.shape[0], dtype=np.int64)
    if counts.size == 0:
        return np.empty(0, dtype=np.int64)
    present = counts > 0
    typical = float(np.median(counts[present])) if present.any() else 0.0
    skewed = keys[(counts > factor * typical) & present]
    return np.sort(skewed)


@dataclass
class SkewHandlingResult:
    """Output of partial duplication: the residual co-optimization problem.

    Attributes
    ----------
    model:
        The residual :class:`ShuffleModel` -- ``h'`` plus broadcast ``v0``.
    local_bytes:
        Skewed large-relation bytes pinned in place (never transferred).
    broadcast_traffic:
        Total bytes the broadcast injects into the network,
        ``sum_i b_i * (n - 1)``.
    """

    model: ShuffleModel
    local_bytes: float
    broadcast_traffic: float


class PartialDuplication:
    """Pre-processing pass turning a skewed shuffle into a residual one.

    Use :meth:`apply` with explicit byte matrices, e.g. produced by a
    workload generator or measured from real relations.
    """

    def apply(
        self,
        h_full: np.ndarray,
        *,
        h_skew_local: np.ndarray | None = None,
        h_broadcast: np.ndarray | None = None,
        rate: float | None = None,
        name: str = "",
    ) -> SkewHandlingResult:
        """Build the residual model.

        Parameters
        ----------
        h_full:
            Chunk matrix ``(n, p)`` of the complete shuffle (both
            relations, including skewed tuples).
        h_skew_local:
            Bytes (same shape) of large-relation skewed tuples to keep
            local.  Must be element-wise ``<= h_full``.
        h_broadcast:
            Bytes (same shape) of small-relation tuples matching the
            skewed keys; they leave the assignment problem and are instead
            broadcast from their resident node to all others.
        rate:
            Port rate for the residual model (default: model default).
        """
        h_full = np.asarray(h_full, dtype=float)
        n, _ = h_full.shape
        if h_skew_local is None or h_broadcast is None:
            zeros = np.zeros_like(h_full)
        h_skew_local = zeros if h_skew_local is None else np.asarray(h_skew_local, float)
        h_broadcast = zeros if h_broadcast is None else np.asarray(h_broadcast, float)
        for nm, m in (("h_skew_local", h_skew_local), ("h_broadcast", h_broadcast)):
            if m.shape != h_full.shape:
                raise ValueError(f"{nm} must have shape {h_full.shape}")
            if (m < 0).any():
                raise ValueError(f"{nm} must be non-negative")
        removed = h_skew_local + h_broadcast
        if (removed > h_full * (1 + 1e-9) + 1e-6).any():
            raise ValueError("skewed + broadcast bytes exceed the chunk matrix")

        residual = np.maximum(h_full - removed, 0.0)
        b = h_broadcast.sum(axis=1)
        v0 = np.tile(b[:, None], (1, n))
        np.fill_diagonal(v0, 0.0)

        kwargs = {} if rate is None else {"rate": rate}
        model = ShuffleModel(
            h=residual,
            v0=v0,
            local_bytes_pre=float(h_skew_local.sum()),
            name=name,
            **kwargs,
        )
        return SkewHandlingResult(
            model=model,
            local_bytes=float(h_skew_local.sum()),
            broadcast_traffic=float(v0.sum()),
        )
