"""Incremental (streaming) co-optimization: assign partitions as they appear.

Algorithm 1 is intrinsically online in the partitions: each step assigns
one partition against the loads accumulated so far.  This module exposes
that structure as a streaming API -- a planner object that receives chunk
columns one at a time (e.g. as an ingest pipeline discovers partitions)
and immediately returns each partition's destination, maintaining exactly
the greedy's incremental state.

Feeding the same columns in the greedy's sorted order reproduces
``ccf_heuristic`` verbatim (tested); arbitrary arrival orders degrade
gracefully -- the cost of not being able to sort is precisely the
sorted-vs-unsorted gap the ablation bench measures.
"""

from __future__ import annotations

import numpy as np

from repro.core.checks import finite_entries, positive
from repro.core.heuristic import _Loads

__all__ = ["IncrementalPlanner"]


class IncrementalPlanner:
    """Streaming destination assignment with Algorithm 1's step rule.

    Parameters
    ----------
    n_nodes:
        Fabric size.
    initial_send, initial_recv:
        Optional starting port loads (bytes) -- broadcast volumes or
        residuals of in-flight shuffles.
    locality_tiebreak:
        Prefer the largest local chunk among equally good destinations.
    allowed:
        Optional boolean mask over nodes restricting which destinations
        may be picked (at least one must be allowed).  Used by the
        fault-tolerance layer to re-plan chunks around failed ports; the
        disallowed nodes' loads still count toward the objective ``T``.
        :meth:`forbid` / :meth:`allow` adjust the mask later.

    Examples
    --------
    >>> import numpy as np
    >>> planner = IncrementalPlanner(n_nodes=3)
    >>> planner.assign(np.array([9.0, 1.0, 0.0]))  # keeps big chunk local
    0
    >>> planner.partitions_assigned
    1
    """

    def __init__(
        self,
        n_nodes: int,
        *,
        initial_send: np.ndarray | None = None,
        initial_recv: np.ndarray | None = None,
        locality_tiebreak: bool = True,
        allowed: np.ndarray | None = None,
    ) -> None:
        positive("n_nodes", n_nodes)
        self.n = n_nodes
        self.locality_tiebreak = locality_tiebreak
        self._loads = _Loads(
            self._init_load(initial_send, "initial_send"),
            self._init_load(initial_recv, "initial_recv"),
        )
        self._count = 0
        if allowed is None:
            self._allowed = np.ones(self.n, dtype=bool)
        else:
            self._allowed = np.asarray(allowed, dtype=bool).copy()
            if self._allowed.shape != (self.n,):
                raise ValueError(f"allowed must have shape ({self.n},)")
            if not self._allowed.any():
                raise ValueError("at least one destination must be allowed")

    def forbid(self, node: int) -> None:
        """Remove a node from the candidate destinations (e.g. it died)."""
        if self._allowed.sum() == 1 and self._allowed[node]:
            raise ValueError("cannot forbid the last allowed destination")
        self._allowed[node] = False

    def allow(self, node: int) -> None:
        """Re-admit a node as a candidate destination (e.g. it recovered)."""
        self._allowed[node] = True

    def allowed_destinations(self) -> np.ndarray:
        """Copy of the boolean candidate-destination mask."""
        return self._allowed.copy()

    def _init_load(self, arr: np.ndarray | None, name: str) -> np.ndarray:
        if arr is None:
            return np.zeros(self.n)
        arr = np.asarray(arr, dtype=float).copy()
        if arr.shape != (self.n,):
            raise ValueError(f"{name} must have shape ({self.n},)")
        return finite_entries(name, arr)

    @property
    def partitions_assigned(self) -> int:
        """Number of partitions routed so far."""
        return self._count

    @property
    def bottleneck_bytes(self) -> float:
        """Current objective ``T`` over everything assigned so far."""
        loads = self._loads
        return float(max(loads.send.max(initial=0.0), loads.recv.max(initial=0.0)))

    def loads(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the current (send, recv) byte loads."""
        return self._loads.send.copy(), self._loads.recv.copy()

    def peek(self, chunk_bytes: np.ndarray) -> tuple[int, float]:
        """Destination Algorithm 1 would pick, without committing.

        Returns ``(destination, resulting_T)``.
        """
        return self._step(chunk_bytes, commit=False)

    def assign(self, chunk_bytes: np.ndarray) -> int:
        """Route one partition and commit its loads; returns the node."""
        d, _ = self._step(chunk_bytes, commit=True)
        self._count += 1
        return d

    def _step(self, chunk_bytes: np.ndarray, *, commit: bool) -> tuple[int, float]:
        """Check a chunk vector and run Algorithm 1's step on it."""
        col = np.asarray(chunk_bytes, dtype=float)
        if col.shape != (self.n,):
            raise ValueError(f"chunk vector must have shape ({self.n},)")
        # ``not >= 0`` also catches NaN, and an infinite chunk makes the
        # (non-negative) sum infinite.
        s_k = float(col.sum())
        if not ((col >= 0).all() and s_k < np.inf):
            raise ValueError("chunk bytes must be finite and non-negative")
        allowed = None if self._allowed.all() else self._allowed
        return self._loads.step(col, s_k - col, self.locality_tiebreak,
                                allowed, commit)
