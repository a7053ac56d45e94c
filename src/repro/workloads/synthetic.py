"""Synthetic chunk-matrix workloads beyond the TPC-H model.

The paper's workload has a very specific statistical shape (uniform
partitions, fixed zipf ranking).  Ablations and robustness studies need
*other* shapes to see when design choices bind; this module provides a
small family of named generators, all returning
:class:`~repro.core.model.ShuffleModel` instances with deterministic
seeds:

``lognormal``
    Heavy-tailed independent chunk sizes with configurable sparsity --
    the shape on which Algorithm 1's sorting and locality tie-break are
    demonstrated (`ccf run ablation-heuristic`).
``clustered``
    Every partition's bytes concentrated on a few random holder nodes --
    data with strong locality, where assignment choices matter most.
``bimodal``
    A mix of many small and a few huge partitions -- stresses the
    descending-size processing order.
``adversarial_greedy``
    The known 3x4 instance where Algorithm 1 lands above both baselines
    (found by property testing; fixed by local search).
``adversarial_locality``
    The 2x5 instance where the locality tie-break costs 1.6x against
    Mini -- the worst band violation property testing has found (see
    docs/algorithms.md, "Known adversarial instances").
"""

from __future__ import annotations

import numpy as np

from repro.core.checks import at_least, in_range
from repro.core.model import ShuffleModel

__all__ = [
    "lognormal_workload",
    "clustered_workload",
    "bimodal_workload",
    "adversarial_greedy_instance",
    "adversarial_locality_instance",
]


def lognormal_workload(
    n_nodes: int,
    partitions: int,
    *,
    mean: float = 14.0,
    sigma: float = 2.0,
    density: float = 0.3,
    rate: float = 128e6,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> ShuffleModel:
    """Sparse log-normal chunk sizes (heavy tail, independent cells).

    ``rng`` overrides ``seed`` with an already-spawned generator so
    composed pipelines (service mode, sweep cells) share one seeding
    scheme; omitted, behaviour is unchanged.
    """
    in_range("density", density, 0, 1, "(]")
    if rng is None:
        rng = np.random.default_rng(seed)
    h = rng.lognormal(mean=mean, sigma=sigma, size=(n_nodes, partitions))
    h *= rng.random((n_nodes, partitions)) < density
    return ShuffleModel(h=h, rate=rate, name="lognormal")


def clustered_workload(
    n_nodes: int,
    partitions: int,
    *,
    holders_per_partition: int = 3,
    chunk_mb: float = 10.0,
    rate: float = 128e6,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> ShuffleModel:
    """Each partition's bytes live on a few random holder nodes."""
    in_range("holders_per_partition", holders_per_partition, 1, n_nodes)
    if rng is None:
        rng = np.random.default_rng(seed)
    h = np.zeros((n_nodes, partitions))
    for k in range(partitions):
        holders = rng.choice(n_nodes, size=holders_per_partition, replace=False)
        h[holders, k] = rng.integers(1, 20, holders_per_partition) * chunk_mb * 1e5
    return ShuffleModel(h=h, rate=rate, name="clustered")


def bimodal_workload(
    n_nodes: int,
    partitions: int,
    *,
    huge_fraction: float = 0.05,
    ratio: float = 100.0,
    rate: float = 128e6,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> ShuffleModel:
    """Mostly small partitions plus a few ``ratio``-times-larger ones."""
    in_range("huge_fraction", huge_fraction, 0, 1)
    at_least("ratio", ratio, 1)
    if rng is None:
        rng = np.random.default_rng(seed)
    base = rng.uniform(0.5, 1.5, size=(n_nodes, partitions)) * 1e6
    huge = rng.random(partitions) < huge_fraction
    base[:, huge] *= ratio
    return ShuffleModel(h=base, rate=rate, name="bimodal")


def adversarial_greedy_instance(*, rate: float = 1.0) -> ShuffleModel:
    """The known instance where plain Algorithm 1 loses to the baselines.

    Greedy yields ``T = 19`` while both Hash and Mini achieve 18 (and the
    optimum is lower still); single-move local search repairs it.  Kept
    as a named fixture so the weakness stays documented and tested.
    """
    h = np.array(
        [
            [17.0, 0.0, 2.0, 0.0],
            [0.0, 17.0, 0.0, 0.0],
            [2.0, 16.0, 17.0, 0.0],
        ]
    )
    return ShuffleModel(h=h, rate=rate, name="adversarial-greedy")


def adversarial_locality_instance(*, rate: float = 1.0) -> ShuffleModel:
    """The 2x5 instance where the locality tie-break costs 1.6x vs Mini.

    Algorithm 1 reaches ``T = 8`` where Mini achieves 5 -- the worst
    band violation property testing has found (still inside the 2x band
    asserted in ``tests/test_properties.py``).  The mechanism: early
    ties let the locality rule park partitions 0 and 1 on node 1 "for
    free", so by the time the symmetric final partition arrives both
    ports already carry 4 send + 4 recv bytes and either choice pushes
    a port to 8.  Mini, paying a little extra traffic up front, keeps
    the loads level at 5.  docs/algorithms.md ("Known adversarial
    instances") walks through the greedy's trace step by step.
    """
    h = np.array(
        [
            [0.0, 0.0, 1.0, 4.0, 4.0],
            [4.0, 4.0, 4.0, 5.0, 4.0],
        ]
    )
    return ShuffleModel(h=h, rate=rate, name="adversarial-locality")
