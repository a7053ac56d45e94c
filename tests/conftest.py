"""Shared fixtures and helpers for the CCF test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.core.model import ShuffleModel
from repro.network.fabric import Fabric

# In CI a failing property test prints its ``@reproduce_failure`` blob,
# so a falsifying example found on a runner can be replayed locally.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def brute_force_metrics(h: np.ndarray, dest: np.ndarray, v0: np.ndarray | None = None):
    """Reference (loop-based) computation of traffic / send / recv / T.

    Used to validate the vectorized ShuffleModel.evaluate.
    """
    n, p = h.shape
    vol = np.zeros((n, n))
    if v0 is not None:
        vol += v0
    for k in range(p):
        for i in range(n):
            vol[i, dest[k]] += h[i, k]
    send = np.array([vol[i].sum() - vol[i, i] for i in range(n)])
    recv = np.array([vol[:, j].sum() - vol[j, j] for j in range(n)])
    traffic = float(send.sum())
    t = float(max(send.max(), recv.max()))
    return traffic, send, recv, t


def random_model(
    rng: np.random.Generator,
    n: int,
    p: int,
    *,
    sparse: float = 0.0,
    with_v0: bool = False,
    rate: float = 1.0,
) -> ShuffleModel:
    """A random integer-valued shuffle model (integers avoid float-tie flak)."""
    h = rng.integers(0, 20, size=(n, p)).astype(float)
    if sparse > 0:
        h *= rng.random((n, p)) >= sparse
    v0 = None
    if with_v0:
        v0 = rng.integers(0, 5, size=(n, n)).astype(float)
        np.fill_diagonal(v0, 0.0)
    return ShuffleModel(h=h, v0=v0, rate=rate)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def unit_fabric() -> Fabric:
    """Three ports at unit rate -- the motivating example's network."""
    return Fabric(n_ports=3, rate=1.0)


@pytest.fixture
def small_model(rng) -> ShuffleModel:
    """A 4-node, 12-partition random model at unit rate."""
    return random_model(rng, 4, 12)
