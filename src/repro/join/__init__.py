"""Distributed-operator substrate: relations, partitioning, shuffle, joins.

Implements the data-processing layer under CCF's schedule/control layer
(paper Fig. 3): distributed relations sharded over nodes, hash
partitioning into the chunk matrix ``h[i, k]``, shuffle execution for a
chosen assignment, local hash joins, and the distributed operators the
paper targets (join, aggregation, duplicate elimination).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "broadcast": ("BroadcastJoin",),
    "local": ("join_cardinality", "local_hash_join"),
    "outer": ("DistributedOuterJoin", "semijoin_reduction"),
    "operators": (
        "DistributedAggregation",
        "DistributedJoin",
        "DuplicateElimination",
    ),
    "partitioner": ("HashPartitioner",),
    "relation": ("DistributedRelation",),
    "shuffle": ("ShuffleOutcome", "execute_shuffle"),
})
