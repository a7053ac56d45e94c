"""Graph workloads: distributed triangle counting via self-joins.

Demonstrates the paper's techniques on a workload far from TPC-H: an
edge relation sharded over nodes, with triangle counting expressed as the
classical two-stage join pipeline

1. *wedges* = edges ⋈ edges on the shared middle vertex
   (``(a, b) ⋈ (b, c)`` with ``a < b < c`` orientation), then
2. close each wedge by probing the edge set for ``(a, c)``.

Both stages shuffle by a key, so both are CCF-schedulable; results are
verified against networkx's triangle count in the tests.  Edges are
oriented by degree-ordering (lower id first on a DAG of the undirected
graph), the standard trick that makes each triangle counted exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.checks import at_least, in_range, positive
from repro.core.framework import CCF
from repro.join.multikey import KeyedEquiJoin, KeyedRelation
from repro.join.partitioner import HashPartitioner
from repro.workloads.zipf import place_tuples, zipf_weights

__all__ = ["GraphConfig", "generate_edge_relation", "count_triangles_distributed"]


@dataclass
class GraphConfig:
    """A random undirected graph, sharded over ``n_nodes`` machines.

    ``n_vertices`` vertices with ``edge_probability`` per pair
    (Erdos-Renyi), placed on machines with zipfian weights.
    """

    n_nodes: int = 4
    n_vertices: int = 60
    edge_probability: float = 0.08
    zipf_s: float = 0.8
    seed: int = 0
    payload_bytes: float = 100.0

    def __post_init__(self) -> None:
        positive("n_nodes", self.n_nodes)
        at_least("n_vertices", self.n_vertices, 2)
        in_range("edge_probability", self.edge_probability, 0, 1, "(]")


def generate_edges(
    config: GraphConfig, *, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Oriented edge list, shape ``(m, 2)`` with ``src < dst``."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    v = config.n_vertices
    iu = np.triu_indices(v, k=1)
    mask = rng.random(iu[0].size) < config.edge_probability
    return np.stack([iu[0][mask], iu[1][mask]], axis=1).astype(np.int64)


def generate_edge_relation(
    config: GraphConfig, *, rng: np.random.Generator | None = None
) -> KeyedRelation:
    """The sharded edge relation with columns ``src`` and ``dst``.

    ``rng`` replaces the *placement* stream only (the edge structure
    stays a pure function of ``config.seed``), so a spawned generator
    composes with the edge list staying comparable across runs.
    """
    edges = generate_edges(config)
    if rng is None:
        rng = np.random.default_rng(config.seed + 1)
    w = zipf_weights(config.n_nodes, config.zipf_s)
    nodes = place_tuples(edges.shape[0], w, rng)
    return KeyedRelation.from_rows(
        {"src": edges[:, 0], "dst": edges[:, 1]},
        nodes,
        config.n_nodes,
        payload_bytes=config.payload_bytes,
        name="EDGES",
    )


@dataclass
class TriangleCountResult:
    """Outcome of the distributed triangle count."""

    triangles: int
    wedges: int
    stage_ccts: list[float]
    stage_traffic: list[float]

    @property
    def total_communication_seconds(self) -> float:
        return float(sum(self.stage_ccts))


def count_triangles_distributed(
    relation: KeyedRelation,
    *,
    strategy: str = "ccf",
    ccf: CCF | None = None,
    partitions_per_node: int = 8,
) -> TriangleCountResult:
    """Two CCF-scheduled join stages closing wedges into triangles.

    Stage 1 joins edges ``(a, b)`` with edges ``(b, c)`` on the middle
    vertex (``dst`` of the first, ``src`` of the second, both oriented
    ``a < b < c``), producing wedges.  Stage 2 co-locates each wedge's
    closing pair ``(a, c)`` with the edge set, again by hashing, and
    counts matches.
    """
    ccf = ccf or CCF(skew_handling=False)
    n = relation.n_nodes
    part = HashPartitioner(p=partitions_per_node * n)

    # Stage 1: wedges.  Rename columns so the join key lines up:
    # left edge (a, mid): key column "mid" = dst; right edge (mid, c).
    left = KeyedRelation(
        columns={
            "a": [s.copy() for s in relation.column_shards("src")],
            "mid": [s.copy() for s in relation.column_shards("dst")],
        },
        payload_bytes=relation.payload_bytes,
        name="edges-as-left",
    )
    right = KeyedRelation(
        columns={
            "mid": [s.copy() for s in relation.column_shards("src")],
            "c": [s.copy() for s in relation.column_shards("dst")],
        },
        payload_bytes=relation.payload_bytes,
        name="edges-as-right",
    )
    stage1 = KeyedEquiJoin(left, right, on="mid", partitioner=part,
                           name="wedges")
    plan1 = ccf.plan(stage1, strategy)
    wedges = stage1.execute(plan1)

    # Orientation a < mid < c holds by construction; every wedge is a
    # triangle candidate closed by edge (a, c).
    # Stage 2: route wedges by a composite key of (a, c) and the edge set
    # by (src, dst); count equal pairs per machine.
    n_vertices = (
        int(
            max(
                (int(s.max()) for s in relation.column_shards("dst") if s.size),
                default=0,
            )
        )
        + 1
    )

    def composite(a: np.ndarray, c: np.ndarray) -> np.ndarray:
        return a * np.int64(n_vertices) + c
    wedge_keys = KeyedRelation(
        columns={
            "pair": [
                composite(rows["a"], rows["c"])
                for rows in (
                    wedges.result.node_rows(i) for i in range(n)
                )
            ]
        },
        payload_bytes=relation.payload_bytes,
        name="wedge-pairs",
    )
    edge_keys = KeyedRelation(
        columns={
            "pair": [
                composite(
                    relation.column_shards("src")[i],
                    relation.column_shards("dst")[i],
                )
                for i in range(n)
            ]
        },
        payload_bytes=relation.payload_bytes,
        name="edge-pairs",
    )
    stage2 = KeyedEquiJoin(
        wedge_keys, edge_keys, on="pair", partitioner=part, name="close"
    )
    plan2 = ccf.plan(stage2, strategy)
    closed = stage2.execute(plan2)

    return TriangleCountResult(
        triangles=closed.cardinality,
        wedges=wedges.cardinality,
        stage_ccts=[plan1.cct, plan2.cct],
        stage_traffic=[wedges.realized_traffic, closed.realized_traffic],
    )
