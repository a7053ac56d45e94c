"""Hash-derived seeds, stable across runs, processes and platforms.

A leaf module (standard library only) so that every layer -- the
service stream, the sweep engine, the chaos campaign -- can derive
decorrelated per-cell / per-stream seeds without importing anything
heavier than :mod:`hashlib` and :mod:`json`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = ["derive_seed"]


def _canonical(payload: Any) -> str:
    """Canonical JSON: the byte-stable serialization keys are hashed from."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def derive_seed(base: int, *parts: Any) -> int:
    """Deterministic per-cell seed, stable across runs and processes.

    Hashes ``(base, parts)`` so neighbouring cells get decorrelated
    generators while equal inputs always produce the equal seed --
    required for parallel/serial bit-identity of seeded grids.

    Parameters
    ----------
    base:
        The experiment-level seed.
    parts:
        Cell coordinates (index, axis value, ...); any JSON-able values.

    Returns
    -------
    int
        A seed in ``[0, 2**31)`` suitable for ``numpy.random.default_rng``.
    """
    text = _canonical([int(base), list(parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**31)
