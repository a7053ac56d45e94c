"""Multi-column relations and joins on arbitrary key columns.

The single-key :class:`~repro.join.relation.DistributedRelation` covers
the paper's evaluation (one join attribute), but real analytical queries
chain joins on *different* keys -- CUSTOMER ⋈(custkey) ORDERS
⋈(orderkey) LINEITEM.  This module provides the keyed substrate:

* :class:`KeyedRelation` -- parallel int64 columns sharded over nodes;
* :func:`local_keyed_join` -- node-local equi-join materializing all
  surviving columns from both sides;
* :func:`execute_keyed_shuffle` -- row-wise redistribution routed by one
  column through a partition->node assignment;
* :class:`KeyedEquiJoin` -- the CCF-schedulable operator: its shuffle
  model is derived from the join column, its execution keeps every other
  column alive for downstream operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.checks import positive
from repro.core.model import ShuffleModel
from repro.core.plan import ExecutionPlan
from repro.join.partitioner import HashPartitioner
from repro.join.relation import DistributedRelation
from repro.network.fabric import DEFAULT_PORT_RATE

__all__ = [
    "KeyedRelation",
    "KeyedEquiJoin",
    "KeyedGroupBy",
    "KeyedJoinResult",
    "execute_keyed_shuffle",
    "local_keyed_join",
]


@dataclass
class KeyedRelation:
    """A relation with named int64 columns, sharded over nodes.

    Parameters
    ----------
    columns:
        ``columns[name][node]`` -- the column's values on that node.  All
        columns of a node must have equal length.
    payload_bytes:
        Width of one tuple in bytes (all columns plus payload).
    """

    columns: dict[str, list[np.ndarray]]
    payload_bytes: float = 1000.0
    name: str = ""

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("a keyed relation needs at least one column")
        positive("payload_bytes", self.payload_bytes)
        lengths: list[int] | None = None
        for col, shards in self.columns.items():
            shards = [np.asarray(s, dtype=np.int64) for s in shards]
            self.columns[col] = shards
            ls = [s.size for s in shards]
            if lengths is None:
                lengths = ls
            elif ls != lengths:
                raise ValueError(
                    f"column {col!r} shard lengths {ls} != {lengths}"
                )
        if not lengths:
            raise ValueError("need at least one shard")

    @property
    def column_names(self) -> list[str]:
        return list(self.columns)

    @property
    def n_nodes(self) -> int:
        return len(next(iter(self.columns.values())))

    @property
    def total_tuples(self) -> int:
        return int(sum(s.size for s in next(iter(self.columns.values()))))

    @property
    def total_bytes(self) -> float:
        return self.total_tuples * self.payload_bytes

    def column_shards(self, name: str) -> list[np.ndarray]:
        """Per-node arrays of one column."""
        try:
            return self.columns[name]
        except KeyError:
            raise ValueError(
                f"unknown column {name!r}; have {self.column_names}"
            ) from None

    def project(self, name: str) -> DistributedRelation:
        """Single-key view on one column (for CCF models, stats, ...)."""
        return DistributedRelation(
            shards=[s.copy() for s in self.column_shards(name)],
            payload_bytes=self.payload_bytes,
            name=f"{self.name}.{name}" if self.name else name,
        )

    def select(self, column: str, predicate) -> "KeyedRelation":
        """Row filter: keep rows where ``predicate(column_values)``."""
        masks = [predicate(s) for s in self.column_shards(column)]
        return KeyedRelation(
            columns={
                col: [s[m] for s, m in zip(shards, masks)]
                for col, shards in self.columns.items()
            },
            payload_bytes=self.payload_bytes,
            name=self.name,
        )

    def node_rows(self, node: int) -> dict[str, np.ndarray]:
        """All columns of one node as a dict."""
        return {col: shards[node] for col, shards in self.columns.items()}

    @classmethod
    def from_rows(
        cls,
        columns: dict[str, np.ndarray],
        nodes: np.ndarray,
        n_nodes: int,
        *,
        payload_bytes: float = 1000.0,
        name: str = "",
    ) -> "KeyedRelation":
        """Build shards from parallel row arrays and home-node indices."""
        nodes = np.asarray(nodes, dtype=np.int64)
        order = np.argsort(nodes, kind="stable")
        sorted_nodes = nodes[order]
        bounds = np.searchsorted(sorted_nodes, np.arange(n_nodes + 1))
        out: dict[str, list[np.ndarray]] = {}
        for col, values in columns.items():
            values = np.asarray(values, dtype=np.int64)
            if values.shape != nodes.shape:
                raise ValueError(f"column {col!r} not parallel to nodes")
            sv = values[order]
            out[col] = [
                sv[bounds[i]: bounds[i + 1]].copy() for i in range(n_nodes)
            ]
        return cls(columns=out, payload_bytes=payload_bytes, name=name)


def local_keyed_join(
    left: dict[str, np.ndarray],
    right: dict[str, np.ndarray],
    *,
    on: str,
    left_prefix: str = "",
    right_prefix: str = "",
) -> dict[str, np.ndarray]:
    """Node-local equi-join of two column dicts on a shared column.

    Returns the result columns: the join column once (named ``on``) plus
    every other column of both sides, optionally prefixed to avoid
    collisions.  Colliding unprefixed names raise.
    """
    lk = np.asarray(left[on], dtype=np.int64)
    rk = np.asarray(right[on], dtype=np.int64)
    out_names: dict[str, np.ndarray] = {}

    # Index pairs of matches, built per shared key.
    l_order = np.argsort(lk, kind="stable")
    r_order = np.argsort(rk, kind="stable")
    lks, rks = lk[l_order], rk[r_order]
    l_uniq, l_start = np.unique(lks, return_index=True)
    r_uniq, r_start = np.unique(rks, return_index=True)
    l_end = np.append(l_start[1:], lks.size)
    r_end = np.append(r_start[1:], rks.size)
    common, li, ri = np.intersect1d(
        l_uniq, r_uniq, assume_unique=True, return_indices=True
    )
    l_idx_parts: list[np.ndarray] = []
    r_idx_parts: list[np.ndarray] = []
    for c_i in range(common.size):
        ls = l_order[l_start[li[c_i]]: l_end[li[c_i]]]
        rs = r_order[r_start[ri[c_i]]: r_end[ri[c_i]]]
        l_idx_parts.append(np.repeat(ls, rs.size))
        r_idx_parts.append(np.tile(rs, ls.size))
    l_idx = (
        np.concatenate(l_idx_parts) if l_idx_parts else np.empty(0, np.int64)
    )
    r_idx = (
        np.concatenate(r_idx_parts) if r_idx_parts else np.empty(0, np.int64)
    )

    out_names[on] = lk[l_idx]
    for col, values in left.items():
        if col == on:
            continue
        name = f"{left_prefix}{col}"
        if name in out_names:
            raise ValueError(f"result column collision: {name!r}")
        out_names[name] = np.asarray(values, dtype=np.int64)[l_idx]
    for col, values in right.items():
        if col == on:
            continue
        name = f"{right_prefix}{col}"
        if name in out_names:
            raise ValueError(f"result column collision: {name!r}")
        out_names[name] = np.asarray(values, dtype=np.int64)[r_idx]
    return out_names


def execute_keyed_shuffle(
    relation: KeyedRelation,
    partitioner: HashPartitioner,
    dest: np.ndarray,
    *,
    on: str,
) -> tuple[KeyedRelation, np.ndarray]:
    """Redistribute rows so column ``on``'s partition lands on ``dest``.

    Returns (shuffled relation, realized (n, n) volume matrix in bytes).
    """
    dest = np.asarray(dest, dtype=np.int64)
    if dest.shape != (partitioner.p,):
        raise ValueError(f"dest must have shape ({partitioner.p},)")
    n = relation.n_nodes
    payload = relation.payload_bytes
    volume = np.zeros((n, n))
    per_target: dict[str, list[list[np.ndarray]]] = {
        col: [[] for _ in range(n)] for col in relation.column_names
    }
    for i in range(n):
        rows = relation.node_rows(i)
        keys = rows[on]
        if keys.size == 0:
            continue
        target = dest[partitioner.partition_of(keys)]
        order = np.argsort(target, kind="stable")
        st = target[order]
        bounds = np.searchsorted(st, np.arange(n + 1))
        for j in range(n):
            seg = order[bounds[j]: bounds[j + 1]]
            if seg.size:
                for col in relation.column_names:
                    per_target[col][j].append(rows[col][seg])
                volume[i, j] += seg.size * payload

    shuffled = KeyedRelation(
        columns={
            col: [
                np.concatenate(parts) if parts else np.empty(0, np.int64)
                for parts in per_target[col]
            ]
            for col in relation.column_names
        },
        payload_bytes=payload,
        name=relation.name,
    )
    return shuffled, volume


@dataclass
class KeyedJoinResult:
    """Outcome of a keyed join execution."""

    plan: ExecutionPlan
    result: KeyedRelation
    cardinality: int
    realized_traffic: float


class KeyedEquiJoin:
    """Equi-join of two keyed relations on a named column, CCF-schedulable.

    Implements the ShuffleWorkload protocol: the co-optimization model is
    built from the join column's chunk matrix over both inputs.  Skew
    handling (partial duplication) is not applied on this path -- keyed
    rows must follow their key.
    """

    def __init__(
        self,
        left: KeyedRelation,
        right: KeyedRelation,
        *,
        on: str,
        partitioner: HashPartitioner | None = None,
        rate: float = DEFAULT_PORT_RATE,
        left_prefix: str = "",
        right_prefix: str = "",
        name: str = "keyed-join",
    ) -> None:
        if left.n_nodes != right.n_nodes:
            raise ValueError("left and right must span the same nodes")
        for rel, side in ((left, "left"), (right, "right")):
            if on not in rel.column_names:
                raise ValueError(f"{side} relation lacks join column {on!r}")
        self.left = left
        self.right = right
        self.on = on
        self.partitioner = partitioner or HashPartitioner(p=15 * left.n_nodes)
        self.rate = rate
        self.left_prefix = left_prefix
        self.right_prefix = right_prefix
        self.name = name

    @property
    def n_nodes(self) -> int:
        return self.left.n_nodes

    def shuffle_model(self, *, skew_handling: bool = False) -> ShuffleModel:
        """CCF input: both inputs' bytes, partitioned by the join column."""
        h = self.partitioner.chunk_matrix(
            self.left.project(self.on), self.right.project(self.on)
        )
        return ShuffleModel(h=h, rate=self.rate, name=self.name)

    def execute(
        self, plan: ExecutionPlan, *, result_payload_bytes: float | None = None
    ) -> KeyedJoinResult:
        """Shuffle both sides by the plan and join locally, keeping columns."""
        left_sh, vol_l = execute_keyed_shuffle(
            self.left, self.partitioner, plan.dest, on=self.on
        )
        right_sh, vol_r = execute_keyed_shuffle(
            self.right, self.partitioner, plan.dest, on=self.on
        )
        n = self.n_nodes
        out_cols: dict[str, list[np.ndarray]] | None = None
        total = 0
        for node in range(n):
            joined = local_keyed_join(
                left_sh.node_rows(node),
                right_sh.node_rows(node),
                on=self.on,
                left_prefix=self.left_prefix,
                right_prefix=self.right_prefix,
            )
            if out_cols is None:
                out_cols = {col: [] for col in joined}
            for col, values in joined.items():
                out_cols[col].append(values)
            total += joined[self.on].size
        assert out_cols is not None
        payload = (
            result_payload_bytes
            if result_payload_bytes is not None
            else self.left.payload_bytes + self.right.payload_bytes
        )
        result = KeyedRelation(
            columns=out_cols, payload_bytes=payload, name=f"{self.name}-result"
        )
        volume = vol_l + vol_r
        traffic = float(volume.sum() - np.trace(volume))
        return KeyedJoinResult(
            plan=plan,
            result=result,
            cardinality=total,
            realized_traffic=traffic,
        )


class KeyedGroupBy:
    """Count rows per value of one column, CCF-schedulable.

    Like :class:`~repro.join.operators.DistributedAggregation` but over a
    keyed relation: every node pre-aggregates its shard to
    (value, partial count) pairs, the pairs are routed by the group
    column through the plan, and destinations merge.  Pre-aggregation is
    always on -- it strictly reduces the shuffled bytes.
    """

    def __init__(
        self,
        relation: KeyedRelation,
        *,
        by: str,
        partitioner: HashPartitioner | None = None,
        rate: float = DEFAULT_PORT_RATE,
        record_bytes: float | None = None,
        name: str = "keyed-group-by",
    ) -> None:
        if by not in relation.column_names:
            raise ValueError(f"relation lacks group column {by!r}")
        self.relation = relation
        self.by = by
        self.partitioner = partitioner or HashPartitioner(
            p=15 * relation.n_nodes
        )
        self.rate = rate
        self.record_bytes = (
            record_bytes if record_bytes is not None else relation.payload_bytes
        )
        self.name = name

    @property
    def n_nodes(self) -> int:
        return self.relation.n_nodes

    def _partials(self) -> KeyedRelation:
        """Per-node (value, count) pairs as a two-column keyed relation."""
        values: list[np.ndarray] = []
        counts: list[np.ndarray] = []
        for shard in self.relation.column_shards(self.by):
            if shard.size:
                uniq, cnt = np.unique(shard, return_counts=True)
            else:
                uniq = np.empty(0, np.int64)
                cnt = np.empty(0, np.int64)
            values.append(uniq)
            counts.append(cnt.astype(np.int64))
        return KeyedRelation(
            columns={self.by: values, "partial_count": counts},
            payload_bytes=self.record_bytes,
            name=f"{self.name}-partials",
        )

    def shuffle_model(self, *, skew_handling: bool = True) -> ShuffleModel:
        """CCF input: the pre-aggregated partials, partitioned by group."""
        h = self.partitioner.chunk_matrix(self._partials().project(self.by))
        return ShuffleModel(h=h, rate=self.rate, name=self.name)

    def expected_groups(self) -> dict[int, int]:
        """Centralized ground truth: value -> count."""
        out: dict[int, int] = {}
        for shard in self.relation.column_shards(self.by):
            if shard.size:
                uniq, cnt = np.unique(shard, return_counts=True)
                for k, c in zip(uniq, cnt):
                    out[int(k)] = out.get(int(k), 0) + int(c)
        return out

    def execute(self, plan: ExecutionPlan) -> tuple[dict[int, int], float]:
        """Shuffle the partials and merge; returns (groups, traffic)."""
        shuffled, volume = execute_keyed_shuffle(
            self._partials(), self.partitioner, plan.dest, on=self.by
        )
        groups: dict[int, int] = {}
        for node in range(self.n_nodes):
            rows = shuffled.node_rows(node)
            for k, c in zip(rows[self.by], rows["partial_count"]):
                groups[int(k)] = groups.get(int(k), 0) + int(c)
        traffic = float(volume.sum() - np.trace(volume))
        return groups, traffic
