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
from typing import Sequence

import numpy as np

from repro.core.checks import finite_entries, positive
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
    positive("factor", factor)
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

    Use :meth:`apply` with the skewed partitions' byte columns, e.g.
    produced by a workload generator or measured from real relations.
    """

    def apply(
        self,
        h_full: np.ndarray,
        columns: Sequence[int] | np.ndarray = (),
        *,
        local: np.ndarray | None = None,
        broadcast: np.ndarray | None = None,
        rate: float | None = None,
        name: str = "",
    ) -> SkewHandlingResult:
        """Build the residual model from the skewed partitions' columns.

        Partial duplication touches only the partitions holding skewed
        keys, so its inputs are column-sparse: ``s`` partition indices
        and an ``(n, s)`` byte block per part.  Every other column
        removes nothing, so the residual is one copy of ``h_full`` with
        only those ``s`` columns rewritten, and every check runs on the
        ``s`` columns alone.

        Parameters
        ----------
        h_full:
            Chunk matrix ``(n, p)`` of the complete shuffle (both
            relations, including skewed tuples).
        columns:
            Distinct partition indices in ``[0, p)`` that hold skewed
            keys (default: none, which leaves ``h_full`` as it is).
        local:
            ``(n, s)`` bytes of large-relation skewed tuples to keep
            local, column ``c`` for partition ``columns[c]``.
        broadcast:
            ``(n, s)`` bytes of small-relation tuples matching the skewed
            keys; they leave the assignment problem and are instead
            broadcast from their resident node to all others.
            ``local + broadcast`` must not exceed ``h_full[:, columns]``;
            either part defaults to zeros.
        rate:
            Port rate for the residual model (default: model default).
        """
        h_full = np.asarray(h_full, dtype=float)
        if h_full.ndim != 2:
            raise ValueError(f"h_full must be 2-D (n, p), got shape {h_full.shape}")
        n, p = h_full.shape
        cols = np.asarray(columns)
        if cols.size == 0:
            cols = np.empty(0, dtype=np.int64)
        if cols.ndim != 1 or not np.issubdtype(cols.dtype, np.integer):
            raise ValueError("columns must be a 1-D array of partition indices")
        if ((cols < 0) | (cols >= p)).any():
            raise ValueError(f"column indices must be in [0, {p})")
        ordered = np.sort(cols)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("column indices must not repeat")
        shape = (n, cols.size)
        parts = []
        for nm, m in (("local", local), ("broadcast", broadcast)):
            m = np.zeros(shape) if m is None else np.asarray(m, dtype=float)
            if m.shape != shape:
                raise ValueError(f"{nm} must have shape {shape}")
            parts.append(finite_entries(nm, m))
        local, broadcast = parts
        hot = h_full[:, cols]
        removed = local + broadcast
        if (removed > hot * (1 + 1e-9) + 1e-6).any():
            raise ValueError("skewed + broadcast bytes exceed the chunk matrix")

        residual = h_full.copy()
        residual[:, cols] = np.maximum(hot - removed, 0.0)
        b = broadcast.sum(axis=1)
        v0 = np.tile(b[:, None], (1, n))
        np.fill_diagonal(v0, 0.0)

        kwargs = {} if rate is None else {"rate": rate}
        local_bytes = float(local.sum())
        model = ShuffleModel(
            h=residual,
            v0=v0,
            local_bytes_pre=local_bytes,
            name=name,
            **kwargs,
        )
        return SkewHandlingResult(
            model=model,
            local_bytes=local_bytes,
            broadcast_traffic=float(v0.sum()),
        )
