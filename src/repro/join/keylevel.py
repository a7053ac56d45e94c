"""Per-key co-optimization: the track-join-granularity extension.

The paper's model assigns whole hash *partitions* to nodes; track-join
(Polychroniou et al., SIGMOD'14) works per *key*.  Footnote 6 of the
paper: "Our approach can be also extended to that level".  This module
performs that extension for tuple-level workloads: the heaviest
partitions are *split* into per-key columns, producing a refined chunk
matrix on which Algorithm 1 (or any other solver) runs unchanged -- a
strictly more expressive assignment space, at the cost of more columns.

Splitting everything is wasteful (p explodes to the number of keys);
splitting nothing is the paper's model.  ``refine_model`` exposes the
dial: split the top ``split_fraction`` of partitions by size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.checks import in_range
from repro.core.model import ShuffleModel
from repro.join.partitioner import HashPartitioner
from repro.join.relation import DistributedRelation

__all__ = ["KeyLevelRefinement", "refine_model"]


@dataclass
class KeyLevelRefinement:
    """A refined shuffle model plus the bookkeeping to map back.

    Attributes
    ----------
    model:
        The refined :class:`ShuffleModel`; its columns are a mix of whole
        partitions and individual keys.
    column_partition:
        For every column of the refined model, the original partition id.
    column_key:
        The key a column represents, or -1 for unsplit partition columns.
    split_partitions:
        The partition ids that were exploded into keys.
    """

    model: ShuffleModel
    column_partition: np.ndarray
    column_key: np.ndarray
    split_partitions: np.ndarray

    @property
    def n_columns(self) -> int:
        return int(self.column_partition.shape[0])

    def key_destinations(self, dest: np.ndarray) -> dict[int, int]:
        """Map a refined assignment back to per-key destinations.

        Returns ``{key: node}`` for split keys only; unsplit partitions
        keep their partition-level destination (look those up through
        :attr:`column_partition`).
        """
        dest = np.asarray(dest)
        if dest.shape != (self.n_columns,):
            raise ValueError(
                f"assignment must have shape ({self.n_columns},)"
            )
        out: dict[int, int] = {}
        for col in np.flatnonzero(self.column_key >= 0):
            out[int(self.column_key[col])] = int(dest[col])
        return out


def refine_model(
    relations: list[DistributedRelation],
    partitioner: HashPartitioner,
    *,
    split_fraction: float = 0.05,
    min_split: int = 1,
    rate: float | None = None,
    name: str = "key-refined",
) -> KeyLevelRefinement:
    """Build a chunk matrix with the heaviest partitions split per key.

    Parameters
    ----------
    relations:
        The relations participating in the shuffle (both join sides).
    partitioner:
        The base hash partitioner.
    split_fraction:
        Fraction of partitions (heaviest first) to explode into per-key
        columns; clamped to at least ``min_split`` partitions when any
        partition is non-empty.
    min_split:
        Minimum number of partitions to split.
    """
    if not relations:
        raise ValueError("need at least one relation")
    in_range("split_fraction", split_fraction, 0, 1)
    n = relations[0].n_nodes
    for rel in relations:
        if rel.n_nodes != n:
            raise ValueError("relations span different node counts")
    p = partitioner.p

    h = np.zeros((n, p))
    for rel in relations:
        h += partitioner.chunk_tuples(rel) * rel.payload_bytes

    sizes = h.sum(axis=0)
    n_split = max(int(round(split_fraction * p)), min_split if sizes.any() else 0)
    n_split = min(n_split, int((sizes > 0).sum()))
    split = np.sort(np.argsort(-sizes, kind="stable")[:n_split])
    split_set = set(int(s) for s in split)

    # Per-key byte counts inside split partitions, per node.
    key_bytes: dict[int, np.ndarray] = {}
    for rel in relations:
        for node, shard in enumerate(rel.shards):
            if shard.size == 0:
                continue
            parts = partitioner.partition_of(shard)
            mask = np.isin(parts, split)
            for key in shard[mask]:
                arr = key_bytes.setdefault(int(key), np.zeros(n))
                arr[node] += rel.payload_bytes

    all_keys = np.array(sorted(key_bytes), dtype=np.int64)
    key_parts = (
        partitioner.partition_of(all_keys) if all_keys.size else all_keys
    )
    keys_of_partition: dict[int, list[int]] = {}
    for key, part in zip(all_keys, key_parts):
        keys_of_partition.setdefault(int(part), []).append(int(key))

    columns: list[np.ndarray] = []
    col_part: list[int] = []
    col_key: list[int] = []
    for k in range(p):
        if k in split_set:
            for key in keys_of_partition.get(k, []):
                columns.append(key_bytes[key])
                col_part.append(k)
                col_key.append(key)
        else:
            columns.append(h[:, k])
            col_part.append(k)
            col_key.append(-1)

    refined = (
        np.stack(columns, axis=1) if columns else np.zeros((n, 0))
    )
    kwargs = {} if rate is None else {"rate": rate}
    model = ShuffleModel(h=refined, name=name, **kwargs)
    return KeyLevelRefinement(
        model=model,
        column_partition=np.array(col_part, dtype=np.int64),
        column_key=np.array(col_key, dtype=np.int64),
        split_partitions=split.astype(np.int64),
    )
