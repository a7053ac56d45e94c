"""Distributed relations: shards of join keys spread over nodes.

The evaluation only exercises equi-joins on integer keys with a fixed
per-tuple payload (paper: 1000 B), so a shard is represented by its key
array; payload bytes are tracked as a scalar width.  This keeps a
10^6-tuple relation in a few MB while preserving every quantity the CCF
model consumes (chunk sizes, key frequencies, join cardinalities).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.checks import positive

__all__ = ["DistributedRelation"]


@dataclass
class DistributedRelation:
    """A relation horizontally partitioned over ``n`` nodes.

    Parameters
    ----------
    shards:
        ``shards[i]`` -- int64 array of join keys resident on node ``i``.
    payload_bytes:
        Width of each tuple in bytes (key + payload).
    name:
        Label used in plans and reports.
    """

    shards: list[np.ndarray]
    payload_bytes: float = 1000.0
    name: str = ""

    def __post_init__(self) -> None:
        if not self.shards:
            raise ValueError("a distributed relation needs at least one shard")
        positive("payload_bytes", self.payload_bytes)
        self.shards = [np.asarray(s, dtype=np.int64) for s in self.shards]

    @property
    def n_nodes(self) -> int:
        return len(self.shards)

    @property
    def total_tuples(self) -> int:
        return int(sum(s.size for s in self.shards))

    @property
    def total_bytes(self) -> float:
        return self.total_tuples * self.payload_bytes

    def shard_tuples(self) -> np.ndarray:
        """Tuple count per node."""
        return np.array([s.size for s in self.shards], dtype=np.int64)

    def all_keys(self) -> np.ndarray:
        """All keys of the relation, concatenated (order unspecified)."""
        if self.total_tuples == 0:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([s for s in self.shards])

    def key_counts(self) -> dict[int, int]:
        """Global frequency of each key (for skew detection)."""
        keys = self.all_keys()
        if keys.size == 0:
            return {}
        uniq, cnt = np.unique(keys, return_counts=True)
        return {int(k): int(c) for k, c in zip(uniq, cnt)}

    def select(self, predicate) -> "DistributedRelation":
        """New relation keeping only keys where ``predicate(keys)`` is True.

        ``predicate`` maps a key array to a boolean mask (vectorized).
        """
        return DistributedRelation(
            shards=[s[predicate(s)] for s in self.shards],
            payload_bytes=self.payload_bytes,
            name=self.name,
        )

    def without_keys(self, keys: np.ndarray) -> "DistributedRelation":
        """New relation with all tuples matching ``keys`` removed."""
        keys = np.asarray(keys, dtype=np.int64)
        return self.select(lambda s: ~np.isin(s, keys))

    def only_keys(self, keys: np.ndarray) -> "DistributedRelation":
        """New relation with only tuples matching ``keys``."""
        keys = np.asarray(keys, dtype=np.int64)
        return self.select(lambda s: np.isin(s, keys))

    @classmethod
    def from_placement(
        cls,
        keys: np.ndarray,
        nodes: np.ndarray,
        n_nodes: int,
        *,
        payload_bytes: float = 1000.0,
        name: str = "",
    ) -> "DistributedRelation":
        """Build shards from parallel (key, home-node) arrays."""
        keys = np.asarray(keys, dtype=np.int64)
        nodes = np.asarray(nodes, dtype=np.int64)
        if keys.shape != nodes.shape:
            raise ValueError("keys and nodes must be parallel arrays")
        if keys.size and (nodes.min() < 0 or nodes.max() >= n_nodes):
            raise ValueError("node index out of range")
        order = np.argsort(nodes, kind="stable")
        sorted_nodes = nodes[order]
        sorted_keys = keys[order]
        bounds = np.searchsorted(sorted_nodes, np.arange(n_nodes + 1))
        shards = [
            sorted_keys[bounds[i]: bounds[i + 1]].copy() for i in range(n_nodes)
        ]
        return cls(shards=shards, payload_bytes=payload_bytes, name=name)
