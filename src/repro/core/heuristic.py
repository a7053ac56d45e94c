"""Algorithm 1: the CCF greedy heuristic (paper §III-B), vectorized.

The exact co-optimization (model (3)) is an integer multi-commodity-flow
MILP -- NP-complete, and the paper reports Gurobi needing over half an hour
at n=500, p=7500.  Algorithm 1 instead:

1. sorts partitions by their largest chunk, descending (big chunks move
   ``T`` the most, so they are placed first while the load vectors are
   still flexible);
2. for each partition in that order, tries all ``n`` destinations and
   keeps the one minimizing the *current* objective
   ``T = max(max_i C_i, max_j C_j)`` over the partitions placed so far.

A naive transcription costs O(p * n^2) with Python-level loops.  The
vectorized implementation below maintains incremental ``send``/``recv``
load vectors and scores all ``n`` candidate destinations of a partition
at once: the maximum ``m1`` of ``send + h[:, k]`` (which then becomes
the next ``send``), the largest ``recv`` load ``r1`` kept up to date as
a scalar (``recv`` only grows), one ``np.maximum`` against a scalar, and
one ``where``/``argmax`` for the tie-break.  The runner-up of
``send + h[:, k]`` is searched for only when it can lower the score of
the argmax, i.e. when ``r1 < m1`` and the argmax's grown recv load is
below ``m1`` too (under a tenth of the steps on the Fig. 5 workload).
That is about ten numpy calls per partition in one fused step, O(n*p) in
all: about 9 us per partition at n=250 and 0.2 s (13 us per partition)
at the paper's largest point, n=1000, p=15000, on a shared 2-vCPU Xeon
VM.
:class:`~repro.core.incremental.IncrementalPlanner` runs the same step.
A direct, loop-based transcription of the paper's pseudocode lives in the
test suite's oracles (``tests/oracles.py``) and pins this implementation
destination for destination; docs/algorithms.md derives the step.

Beyond the paper's pseudocode we add an optional *locality tie-break*:
among destinations with equal minimal ``T_d``, prefer the one holding the
largest local chunk.  This never changes the achieved ``T`` for the current
step but reduces traffic, reproducing the paper's observation that "CCF
could be able to explore part of data locality" (Fig. 5(a) discussion).
"""

from __future__ import annotations

import numpy as np

from repro.core.model import ShuffleModel

__all__ = ["ccf_heuristic"]


def _runner_up(values: np.ndarray, a1: int, m1: float) -> float:
    """The largest entry of ``values`` but its maximum ``m1`` at ``a1``.

    ``-inf`` for a single entry.  ``values`` is left as it was.
    """
    # Mask out the argmax to find the runner-up.
    values[a1] = -np.inf
    m2 = values.item(values.argmax())
    values[a1] = m1
    return m2


def _top2(values: np.ndarray) -> tuple[float, int, float]:
    """Return (max, argmax, second max) of a 1-D array."""
    # ``values[argmax]`` is the same float as ``max()`` at a fraction of
    # the call overhead on the short load vectors of Algorithm 1.
    a1 = int(values.argmax())
    m1 = values.item(a1)
    if values.shape[0] == 1:
        return m1, a1, -np.inf
    return m1, a1, _runner_up(values, a1, m1)


class _Loads:
    """Algorithm 1's incremental state: port loads and the largest recv load.

    :meth:`step` prices every destination of one partition in about ten
    numpy calls, picks one and (by default) assigns the partition to it.
    With per-port rates (``inv_out``/``inv_in`` are reciprocal rates) the
    scores are seconds instead of bytes.  ``send`` and ``recv`` are owned
    (updated in place or swapped with a scratch buffer).
    """

    __slots__ = ("send", "recv", "inv_out", "inv_in", "recv_max",
                 "_base", "_scaled", "t", "_others")

    def __init__(
        self,
        send: np.ndarray,
        recv: np.ndarray,
        inv_out: np.ndarray | None = None,
        inv_in: np.ndarray | None = None,
    ) -> None:
        self.send, self.recv = send, recv
        self.inv_out, self.inv_in = inv_out, inv_in
        self._base = np.empty_like(send)
        self._scaled = None if inv_out is None else np.empty_like(send)
        self.t = np.empty_like(recv)
        self._others = np.full_like(recv, -1.0)
        # ``recv`` only grows, so its maximum is kept up to date by
        # :meth:`step` instead of being searched for per partition.
        scaled = recv if inv_in is None else recv * inv_in
        self.recv_max = float(scaled.max())

    def step(
        self,
        col: np.ndarray,
        s_k: float,
        locality_tiebreak: bool,
        allowed: np.ndarray | None = None,
        commit: bool = True,
    ) -> int:
        """Score, pick and (if ``commit``) assign one partition; returns ``d``.

        Sending to ``d`` makes the send loads ``send + col`` except entry
        ``d``, which stays ``send[d]``, and raises only ``recv[d]``, by
        ``s_k - col[d] >= 0``.  With ``m1`` (at ``a1``) and ``m2`` the
        top-2 of ``send + col`` and ``r1`` the largest recv load, every
        ``d`` scores ``max(recv[d] + s_k - col[d], m1, r1)`` except
        ``a1``, whose send term is ``max(m2, send[a1])``.  Taking ``r1``
        even where it is ``recv[d]`` itself is exact, because
        ``recv[d] + s_k - col[d]`` is at least as large.  ``max`` never
        rounds, so the scores are the same floats as a per-destination
        evaluation.

        ``m2`` and ``send[a1]`` are at most ``m1``, so the runner-up can
        only lower ``a1``'s score below ``max(m1, r1)`` when ``r1 < m1``
        and ``a1``'s grown recv load is below ``m1`` too; otherwise the
        ``np.maximum`` already gives ``a1`` its exact score and the
        second ``argmax`` is skipped.

        Destinations outside ``allowed`` score ``inf``: never the
        minimum, never tied.  Among the minima the largest local chunk
        wins: ``col >= 0``, so the ``where`` ranks every tied node above
        the ``-1`` of the others, and ``argmax`` returns the lowest-index
        largest one.  The scores stay in :attr:`t` until the next step.
        """
        send, recv, r1 = self.send, self.recv, self.recv_max
        inv_out, inv_in = self.inv_out, self.inv_in
        base = np.add(send, col, out=self._base)
        top = base
        if inv_out is not None:
            top = np.multiply(base, inv_out, out=self._scaled)
        a1 = int(top.argmax())
        m1 = top.item(a1)
        t = np.subtract(s_k, col, out=self.t)
        np.add(recv, t, out=t)
        if inv_in is not None:
            np.multiply(t, inv_in, out=t)
        recv_a = t.item(a1)
        if r1 < m1 and recv_a < m1:
            kept = send.item(a1)
            if inv_out is not None:
                kept = kept * inv_out.item(a1)
            np.maximum(t, m1, out=t)
            t[a1] = max(_runner_up(top, a1, m1), kept, r1, recv_a)
        else:
            np.maximum(t, max(m1, r1), out=t)
        scored = t
        if allowed is not None:
            scored = np.where(allowed, t, np.inf)
        if locality_tiebreak:
            thr = scored.item(scored.argmin()) * (1 + 1e-12) + 1e-9
            d = int(np.where(scored <= thr, col, self._others).argmax())
        else:
            d = int(scored.argmin())
        if commit:
            # ``base`` is ``send + col``: swap it in.
            self.send, self._base = base, send
            c_d = col.item(d)
            base[d] -= c_d
            v = recv.item(d) + (s_k - c_d)
            recv[d] = v
            if inv_in is not None:
                v = v * inv_in.item(d)
            if v > r1:
                self.recv_max = v
        return d


def ccf_heuristic(
    model: ShuffleModel,
    *,
    sort_partitions: bool = True,
    locality_tiebreak: bool = True,
    egress_rates: np.ndarray | None = None,
    ingress_rates: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized Algorithm 1.

    Parameters
    ----------
    model:
        Shuffle model with chunk matrix ``h`` and initial flows ``v0``.
    sort_partitions:
        Process partitions in descending order of their largest chunk
        (line 1 of Algorithm 1).  Disable only for the ablation bench.
    locality_tiebreak:
        Among equally good destinations prefer the largest local chunk.
    egress_rates, ingress_rates:
        Optional per-port rates (bytes/second) for heterogeneous fabrics;
        candidate scores become seconds (``load / rate``) instead of
        bytes.  With uniform rates the assignment is identical to the
        byte-scored algorithm.

    Returns
    -------
    numpy.ndarray
        ``dest[k]`` -- the chosen node for each partition.
    """
    h = model.h
    n, p = model.n, model.p
    dest = np.zeros(p, dtype=np.int64)
    if p == 0:
        return dest
    if n == 1:
        return dest

    inv_out = inv_in = None
    if egress_rates is not None or ingress_rates is not None:
        e = (
            np.asarray(egress_rates, dtype=float)
            if egress_rates is not None
            else np.full(n, model.rate)
        )
        i = (
            np.asarray(ingress_rates, dtype=float)
            if ingress_rates is not None
            else np.full(n, model.rate)
        )
        if e.shape != (n,) or i.shape != (n,):
            raise ValueError(f"per-port rates must have shape ({n},)")
        if (e <= 0).any() or (i <= 0).any():
            raise ValueError("per-port rates must be strictly positive")
        inv_out, inv_in = 1.0 / e, 1.0 / i

    send0, recv0 = model.initial_loads()
    loads = _Loads(send0.copy(), recv0.copy(), inv_out, inv_in)

    if sort_partitions:
        order = np.argsort(-h.max(axis=0), kind="stable")
    else:
        order = np.arange(p)

    step = loads.step
    for k, s_k in zip(order.tolist(), model.partition_sizes[order].tolist()):
        dest[k] = step(h[:, k], s_k, locality_tiebreak)

    return dest

