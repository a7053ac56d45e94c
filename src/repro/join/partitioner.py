"""Hash partitioning: keys -> partitions, relations -> chunk matrices.

The paper partitions tuples with the simple modulus hash
``f(k) = k mod p`` (§IV-A3) and feeds the per-node, per-partition chunk
sizes ``h[i, k]`` into the co-optimization.  The chunk matrix computation
is the bridge between the tuple-level substrate and the CCF model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.checks import positive
from repro.join.relation import DistributedRelation

__all__ = ["HashPartitioner"]


@dataclass(frozen=True)
class HashPartitioner:
    """Modulus hash partitioner over ``p`` partitions.

    Parameters
    ----------
    p:
        Number of partitions; the paper sets ``p = 15 * n`` to give the
        scheduler fine-grained control over data assignment.
    """

    p: int

    def __post_init__(self) -> None:
        positive("number of partitions", self.p)

    def partition_of(self, keys: np.ndarray) -> np.ndarray:
        """Partition index of each key: ``k mod p`` (non-negative)."""
        keys = np.asarray(keys, dtype=np.int64)
        return np.mod(keys, self.p)

    def chunk_tuples(self, relation: DistributedRelation) -> np.ndarray:
        """Per-(node, partition) tuple counts, shape ``(n, p)``."""
        n = relation.n_nodes
        out = np.zeros((n, self.p), dtype=np.int64)
        for i, shard in enumerate(relation.shards):
            if shard.size:
                out[i] = np.bincount(self.partition_of(shard), minlength=self.p)
        return out

    def chunk_matrix(self, *relations: DistributedRelation) -> np.ndarray:
        """Chunk-size matrix ``h[i, k]`` in bytes, summed over relations.

        All relations must live on the same set of nodes; each contributes
        its tuple counts scaled by its payload width.
        """
        if not relations:
            raise ValueError("need at least one relation")
        n = relations[0].n_nodes
        h = np.zeros((n, self.p))
        for rel in relations:
            if rel.n_nodes != n:
                raise ValueError("relations span different node counts")
            h += self.chunk_tuples(rel) * rel.payload_bytes
        return h
