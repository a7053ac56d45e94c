"""Zipfian node-placement weights (paper §IV-A2).

The evaluation lets "the size of included data chunks follow the Zipfian
distribution over the n nodes": node of rank ``r`` (1-based) holds a share
proportional to ``r ** -s``.  ``s = 0`` degenerates to uniform placement;
``s = 1`` is classical Zipf.  The ranking is the same for every partition,
so node 0 always holds the largest chunk -- the property that makes the
Mini strategy collapse all traffic onto node 0.
"""

from __future__ import annotations

import numpy as np

from repro.core.checks import non_negative, positive

__all__ = ["zipf_weights", "place_tuples"]


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalized Zipf(s) weights over ``n`` ranks (rank 0 largest).

    Parameters
    ----------
    n:
        Number of nodes.
    s:
        Zipf exponent >= 0; 0 gives the uniform distribution.
    """
    positive("n", n)
    non_negative("zipf exponent", s)
    ranks = np.arange(1, n + 1, dtype=float)
    w = ranks ** (-s)
    return w / w.sum()


def place_tuples(
    m: int, weights: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw a home node for each of ``m`` tuples ~ Categorical(weights)."""
    non_negative("m", m)
    weights = np.asarray(weights, dtype=float)
    if m == 0:
        return np.empty(0, dtype=np.int64)
    return rng.choice(weights.shape[0], size=m, p=weights).astype(np.int64)
