"""Distributed operators: join, aggregation, duplicate elimination.

Each operator is a *ShuffleWorkload*: it derives the CCF co-optimization
inputs (chunk matrix, skew split) from real distributed relations, and can
*execute* a chosen plan end-to-end -- shuffle, local processing, result --
so correctness of every strategy is checkable against the centralized
answer.  The paper develops joins in detail and notes the techniques apply
"similarly ... to other distributed operators, such as aggregation and
duplicate elimination" (§I); the latter two implement that transfer,
including local pre-aggregation (the combiner trick) as their
skew-mitigation analogue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.model import ShuffleModel
from repro.core.plan import ExecutionPlan
from repro.core.skew import PartialDuplication, detect_skewed_keys
from repro.join.local import join_cardinality
from repro.join.partitioner import HashPartitioner
from repro.join.relation import DistributedRelation
from repro.join.shuffle import execute_shuffle
from repro.network.fabric import DEFAULT_PORT_RATE

__all__ = [
    "DistributedJoin",
    "DistributedAggregation",
    "DuplicateElimination",
    "JoinExecutionResult",
    "OperatorExecutionResult",
]


@dataclass
class JoinExecutionResult:
    """Outcome of running a join plan at the tuple level.

    Attributes
    ----------
    plan:
        The executed plan.
    cardinality:
        Total number of join-result tuples across nodes.
    per_node_cardinality:
        Result tuples produced on each node.
    realized_traffic:
        Bytes that actually crossed the network during the shuffle.
    realized_volume:
        Realized ``(n, n)`` volume matrix (both relations + broadcast).
    result:
        The materialized result relation (join keys with multiplicity,
        resident where they were produced) when the join was executed
        with ``materialize=True``; otherwise ``None``.
    """

    plan: ExecutionPlan
    cardinality: int
    per_node_cardinality: np.ndarray
    realized_traffic: float
    realized_volume: np.ndarray
    result: "DistributedRelation | None" = None


@dataclass
class OperatorExecutionResult:
    """Outcome of an aggregation / duplicate-elimination plan.

    ``groups`` maps each key to its aggregate (count for aggregation,
    1 for duplicate elimination -- i.e. the distinct-key set).
    """

    plan: ExecutionPlan
    groups: dict[int, int]
    realized_traffic: float
    realized_volume: np.ndarray


class DistributedJoin:
    """``left ⋈ right`` on a common integer key, CCF-schedulable.

    Parameters
    ----------
    left:
        The smaller (build/broadcast-eligible) relation, e.g. CUSTOMER.
    right:
        The larger (probe) relation whose skewed tuples stay local,
        e.g. ORDERS.
    partitioner:
        Hash partitioner; defaults to ``p = 15 * n`` as in the paper.
    rate:
        Port rate for derived shuffle models.
    skew_factor:
        Frequency multiple over the mean above which a right-relation key
        counts as skewed (partial-duplication detection).
    """

    def __init__(
        self,
        left: DistributedRelation,
        right: DistributedRelation,
        *,
        partitioner: HashPartitioner | None = None,
        rate: float = DEFAULT_PORT_RATE,
        skew_factor: float = 100.0,
        name: str = "join",
    ) -> None:
        if left.n_nodes != right.n_nodes:
            raise ValueError("left and right must span the same nodes")
        self.left = left
        self.right = right
        self.partitioner = partitioner or HashPartitioner(p=15 * left.n_nodes)
        self.rate = rate
        self.skew_factor = skew_factor
        self.name = name
        self._skewed_keys: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return self.left.n_nodes

    def skewed_keys(self) -> np.ndarray:
        """Right-relation keys flagged as skewed (cached)."""
        if self._skewed_keys is None:
            self._skewed_keys = detect_skewed_keys(
                self.right.key_counts(), factor=self.skew_factor
            )
        return self._skewed_keys

    def chunk_matrix(self) -> np.ndarray:
        """Full ``h[i, k]`` over both relations, in bytes."""
        return self.partitioner.chunk_matrix(self.left, self.right)

    def shuffle_model(self, *, skew_handling: bool) -> ShuffleModel:
        """The co-optimization input for this join."""
        full = self.chunk_matrix()
        skewed = self.skewed_keys() if skew_handling else np.empty(0, np.int64)
        if skewed.size == 0:
            return ShuffleModel(h=full, rate=self.rate, name=self.name)
        cols = np.unique(self.partitioner.partition_of(skewed))
        h_local = self.partitioner.chunk_matrix(self.right.only_keys(skewed))
        h_bcast = self.partitioner.chunk_matrix(self.left.only_keys(skewed))
        return (
            PartialDuplication()
            .apply(
                full,
                cols,
                local=h_local[:, cols],
                broadcast=h_bcast[:, cols],
                rate=self.rate,
                name=self.name,
            )
            .model
        )

    def expected_cardinality(self) -> int:
        """Centralized ground-truth join size."""
        return join_cardinality(self.left.all_keys(), self.right.all_keys())

    def execute(
        self,
        plan: ExecutionPlan,
        *,
        skew_handling: bool | None = None,
        materialize: bool = False,
        result_payload_bytes: float | None = None,
    ) -> JoinExecutionResult:
        """Run the shuffle + local joins for a plan and verify co-location.

        ``skew_handling`` defaults to whether the plan's model carries
        initial broadcast flows (i.e. was built with partial duplication).
        With ``materialize=True`` the result keys (with multiplicity) are
        kept per node as a new :class:`DistributedRelation` whose tuple
        width defaults to the two input widths combined.
        """
        if skew_handling is None:
            skew_handling = bool(plan.model.v0.sum() > 0 or plan.model.local_bytes_pre > 0)
        dest = plan.dest
        n = self.n_nodes
        skewed = self.skewed_keys() if skew_handling else np.empty(0, np.int64)

        if skewed.size:
            right_rest = self.right.without_keys(skewed)
            right_skew = self.right.only_keys(skewed)
            left_out = execute_shuffle(
                self.left, self.partitioner, dest, broadcast_keys=skewed
            )
        else:
            right_rest = self.right
            right_skew = None
            left_out = execute_shuffle(self.left, self.partitioner, dest)
        right_out = execute_shuffle(right_rest, self.partitioner, dest)

        right_shards = list(right_out.relation.shards)
        if right_skew is not None:
            right_shards = [
                np.concatenate([right_shards[i], right_skew.shards[i]])
                for i in range(n)
            ]

        per_node = np.array(
            [
                join_cardinality(left_out.relation.shards[i], right_shards[i])
                for i in range(n)
            ],
            dtype=np.int64,
        )
        result_relation = None
        if materialize:
            from repro.join.local import local_hash_join

            shards = [
                local_hash_join(left_out.relation.shards[i], right_shards[i])
                for i in range(n)
            ]
            payload = (
                result_payload_bytes
                if result_payload_bytes is not None
                else self.left.payload_bytes + self.right.payload_bytes
            )
            result_relation = DistributedRelation(
                shards=shards, payload_bytes=payload, name=f"{self.name}-result"
            )
        volume = left_out.volume_matrix + right_out.volume_matrix
        traffic = float(volume.sum() - np.trace(volume))
        return JoinExecutionResult(
            plan=plan,
            cardinality=int(per_node.sum()),
            per_node_cardinality=per_node,
            realized_traffic=traffic,
            realized_volume=volume,
            result=result_relation,
        )


class DistributedAggregation:
    """Group-by-key count aggregation over one relation.

    The operator's CCF model routes each key partition to one node; with
    ``pre_aggregate=True`` every node first collapses its shard to
    (key, count) pairs -- the combiner optimization -- which shrinks the
    chunk matrix to one record per distinct key per node.
    """

    def __init__(
        self,
        relation: DistributedRelation,
        *,
        partitioner: HashPartitioner | None = None,
        rate: float = DEFAULT_PORT_RATE,
        pre_aggregate: bool = False,
        record_bytes: float | None = None,
        name: str = "aggregate",
    ) -> None:
        self.relation = relation
        self.partitioner = partitioner or HashPartitioner(p=15 * relation.n_nodes)
        self.rate = rate
        self.pre_aggregate = pre_aggregate
        self.record_bytes = (
            record_bytes if record_bytes is not None else relation.payload_bytes
        )
        self.name = name

    @property
    def n_nodes(self) -> int:
        return self.relation.n_nodes

    def _effective_relation(
        self, pre_aggregate: bool | None = None
    ) -> DistributedRelation:
        """The relation actually shuffled (deduplicated when pre-aggregating)."""
        if pre_aggregate is None:
            pre_aggregate = self.pre_aggregate
        if not pre_aggregate:
            return self.relation
        shards = [np.unique(s) for s in self.relation.shards]
        return DistributedRelation(
            shards=shards, payload_bytes=self.record_bytes, name=self.relation.name
        )

    def shuffle_model(self, *, skew_handling: bool) -> ShuffleModel:
        """CCF input; ``skew_handling`` here means local pre-aggregation.

        Pre-aggregation plays the role partial duplication plays for
        joins: it removes the hot key's repetition from the network.
        """
        rel = self._effective_relation(skew_handling or self.pre_aggregate)
        h = self.partitioner.chunk_matrix(rel)
        return ShuffleModel(h=h, rate=self.rate, name=self.name)

    def expected_groups(self) -> dict[int, int]:
        """Centralized ground truth: key -> count."""
        return self.relation.key_counts()

    def execute(self, plan: ExecutionPlan) -> OperatorExecutionResult:
        """Shuffle (possibly pre-aggregated counts) and merge per node."""
        local_counts: list[dict[int, int]] = []
        if self.pre_aggregate:
            for s in self.relation.shards:
                if s.size:
                    uniq, cnt = np.unique(s, return_counts=True)
                    local_counts.append(
                        {int(k): int(c) for k, c in zip(uniq, cnt)}
                    )
                else:
                    local_counts.append({})

        rel = self._effective_relation() if self.pre_aggregate else self.relation
        out = execute_shuffle(rel, self.partitioner, plan.dest)

        groups: dict[int, int] = {}
        if self.pre_aggregate:
            # Shuffled records are (key, partial-count) pairs; the merge of
            # all partial counts is the same dict whatever the routing.
            for counts in local_counts:
                for k, c in counts.items():
                    groups[k] = groups.get(k, 0) + c
        else:
            for shard in out.relation.shards:
                if shard.size:
                    uniq, cnt = np.unique(shard, return_counts=True)
                    for k, c in zip(uniq, cnt):
                        groups[int(k)] = groups.get(int(k), 0) + int(c)
        traffic = float(out.volume_matrix.sum() - np.trace(out.volume_matrix))
        return OperatorExecutionResult(
            plan=plan,
            groups=groups,
            realized_traffic=traffic,
            realized_volume=out.volume_matrix,
        )


class DuplicateElimination:
    """DISTINCT over one relation: co-locate keys, keep one copy each.

    Local deduplication before the shuffle (always beneficial, always
    applied -- each node need send at most one copy of a key) is this
    operator's skew mitigation, so ``skew_handling`` toggles nothing
    beyond it.
    """

    def __init__(
        self,
        relation: DistributedRelation,
        *,
        partitioner: HashPartitioner | None = None,
        rate: float = DEFAULT_PORT_RATE,
        name: str = "distinct",
    ) -> None:
        self.relation = relation
        self.partitioner = partitioner or HashPartitioner(p=15 * relation.n_nodes)
        self.rate = rate
        self.name = name

    @property
    def n_nodes(self) -> int:
        return self.relation.n_nodes

    def _dedup_relation(self) -> DistributedRelation:
        return DistributedRelation(
            shards=[np.unique(s) for s in self.relation.shards],
            payload_bytes=self.relation.payload_bytes,
            name=self.relation.name,
        )

    def shuffle_model(self, *, skew_handling: bool) -> ShuffleModel:
        """CCF input over the locally-deduplicated shards."""
        h = self.partitioner.chunk_matrix(self._dedup_relation())
        return ShuffleModel(h=h, rate=self.rate, name=self.name)

    def expected_distinct(self) -> int:
        """Centralized ground truth: number of distinct keys."""
        keys = self.relation.all_keys()
        return int(np.unique(keys).size) if keys.size else 0

    def execute(self, plan: ExecutionPlan) -> OperatorExecutionResult:
        """Shuffle deduplicated shards and finish dedup at the destination."""
        out = execute_shuffle(self._dedup_relation(), self.partitioner, plan.dest)
        groups: dict[int, int] = {}
        for shard in out.relation.shards:
            for k in np.unique(shard):
                groups[int(k)] = 1
        traffic = float(out.volume_matrix.sum() - np.trace(out.volume_matrix))
        return OperatorExecutionResult(
            plan=plan,
            groups=groups,
            realized_traffic=traffic,
            realized_volume=out.volume_matrix,
        )
