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
at once.  It gathers the partitions' columns in processing order, a
contiguous ``(block, n)`` array of about 512 KB at a time, with
``u = S_k - h[:, k]`` for the whole block in one subtraction, so a step
reads two contiguous rows instead of a strided column of ``h``.  A step
takes the maximum ``m1`` of ``send + h[:, k]`` (which then becomes the
next ``send``) and ``t = recv + u``; the largest ``recv`` load ``r1`` is
a scalar kept up to date (``recv`` only grows).  No score vector is
built: every score is ``t[d]`` clamped from below by a scalar, so the
minimum score is ``max(min t, max(m1, r1))`` and the tied minima are
``t <= thr``, one comparison; the locality tie-break is one ``argmax``
of ``mask * h[:, k]``.  The runner-up of ``send + h[:, k]`` is searched
for only when it can lower the score of the argmax ``a1``, i.e. when
``r1 < m1`` and ``a1``'s grown recv load is below ``m1`` too (under a
tenth of the steps on the Fig. 5 workload); ``a1`` then has the lowest
score, and when no other node comes within the tie tolerance of it the
step picks ``a1`` without another vector operation.  That is about
six numpy calls per partition in one fused step, O(n*p) in all:
about 7 us per partition at n=250 and 0.19 s (13 us per partition) at
the paper's largest point, n=1000, p=15000, on a shared 2-vCPU Xeon VM.
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

from repro.core.checks import finite_entries
from repro.core.model import _GATHER_BLOCK_BYTES, ShuffleModel

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

    :meth:`step` prices every destination of one partition in about six
    numpy calls, picks one and (by default) assigns the partition to it.
    With per-port rates (``inv_out``/``inv_in`` are reciprocal rates) the
    scores are seconds instead of bytes.  ``send`` and ``recv`` are owned
    (updated in place or swapped with a scratch buffer).
    """

    __slots__ = ("send", "recv", "inv_out", "inv_in", "recv_max",
                 "_base", "_scaled", "_t", "_mask", "_local")

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
        self._t = np.empty_like(recv)
        self._mask = np.empty(recv.shape, dtype=bool)
        self._local = np.empty_like(recv)
        # ``recv`` only grows, so its maximum is kept up to date by
        # :meth:`step` instead of being searched for per partition.
        scaled = recv if inv_in is None else recv * inv_in
        self.recv_max = float(scaled.max())

    def step(
        self,
        col: np.ndarray,
        u: np.ndarray,
        locality_tiebreak: bool,
        allowed: np.ndarray | None = None,
        commit: bool = True,
    ) -> tuple[int, float]:
        """Score, pick and (if ``commit``) assign one partition.

        ``col`` is the partition's chunk column and ``u`` is ``s_k - col``
        with ``s_k`` its size.  Returns ``(d, T_d)``: the destination and
        the objective after assigning to it.

        Sending to ``d`` makes the send loads ``send + col`` except entry
        ``d``, which stays ``send[d]``, and raises only ``recv[d]``, by
        ``u[d] >= 0``.  With ``m1`` (at ``a1``) and ``m2`` the top-2 of
        ``send + col``, ``r1`` the largest recv load and ``t = recv + u``,
        every ``d`` scores ``max(t[d], m1, r1)`` except ``a1``, whose
        send term is ``max(m2, send[a1])``.  Taking ``r1`` even where it
        is ``recv[d]`` itself is exact, because ``t[d]`` is at least as
        large.  ``max`` never rounds, so the scores are the same floats
        as a per-destination evaluation.

        ``m2`` and ``send[a1]`` are at most ``m1``, so the runner-up can
        only lower ``a1``'s score below ``max(m1, r1)`` when ``r1 < m1``
        and ``t[a1] < m1``; otherwise ``a1`` scores like the others.

        No score vector is built.  Every score is ``t[d]`` clamped from
        below by a scalar ``floor`` (``max(m1, r1)``, or ``m1`` in the
        runner-up case), so the minimum is ``max(min t, floor)``, or
        ``a1``'s exact score in the runner-up case, which is at most
        ``m1`` and so at most every other score.  The tie threshold
        ``thr`` is at least that minimum and so at least ``floor``
        (unless the runner-up case finds ``m1 > thr``: then ``a1`` is
        the only tie), so a score is within ``thr`` exactly when its
        ``t[d]`` is.  ``a1``'s ``t[a1]`` is at most its score, so it is
        in the tie set too.  Among the ties the largest local chunk wins,
        lowest index first: ``col`` is finite and ``>= 0``, so the
        ``argmax`` of ``mask * col`` is that node when its chunk is
        positive; otherwise every tie holds ``0`` and the first tie wins.

        In the common case the minimum is ``floor`` itself (some
        ``t[d] <= floor``: 3 739 of 3 750 steps on the Fig. 5 workload at
        n = 250), so the step picks with ``thr`` from ``floor`` first and
        keeps the pick when its own ``t[d] <= floor`` proves the guess;
        otherwise it takes ``min t`` and picks again.

        Destinations outside ``allowed`` score ``inf``: never the
        minimum, never tied.  That path builds the score vector.
        """
        send, recv, r1 = self.send, self.recv, self.recv_max
        inv_out, inv_in = self.inv_out, self.inv_in
        base = np.add(send, col, out=self._base)
        top = base
        if inv_out is not None:
            top = np.multiply(base, inv_out, out=self._scaled)
        a1 = int(top.argmax())
        m1 = top.item(a1)
        t = np.add(recv, u, out=self._t)
        if inv_in is not None:
            np.multiply(t, inv_in, out=t)
        recv_a = t.item(a1)
        runner_up = r1 < m1 and recv_a < m1
        if runner_up:
            kept = send.item(a1)
            if inv_out is not None:
                kept = kept * inv_out.item(a1)
            best = max(_runner_up(top, a1, m1), kept, r1, recv_a)
            floor = m1
        else:
            floor = max(m1, r1)
        if allowed is not None:
            np.maximum(t, floor, out=t)
            if runner_up:
                t[a1] = best
            t = np.where(allowed, t, np.inf)
            best = t.item(t.argmin())
            runner_up, floor = False, -np.inf
        # Guess that the common branch's minimum is its floor (some
        # ``t[d] <= floor``); a pick with ``t[d] <= floor`` proves it.
        guessed = allowed is None and not runner_up
        if guessed:
            best = floor
        while True:
            thr = best * (1 + 1e-12) + 1e-9 if locality_tiebreak else best
            if runner_up and m1 > thr:
                d = a1
                break
            mask = np.less_equal(t, thr, out=self._mask)
            if locality_tiebreak:
                local = np.multiply(mask, col, out=self._local)
                d = int(local.argmax())
                if not local.item(d) > 0:
                    d = int(mask.argmax())
            else:
                d = int(mask.argmax())
            if not guessed or t.item(d) <= floor:
                break
            guessed = False
            best = max(t.item(t.argmin()), floor)
        score = best if runner_up and d == a1 else max(t.item(d), floor)
        if commit:
            # ``base`` is ``send + col``: swap it in.
            self.send, self._base = base, send
            base[d] -= col.item(d)
            v = recv.item(d) + u.item(d)
            recv[d] = v
            if inv_in is not None:
                v = v * inv_in.item(d)
            if v > r1:
                self.recv_max = v
        return d, score


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
        finite_entries("egress_rates", e, strict=True)
        finite_entries("ingress_rates", i, strict=True)
        inv_out, inv_in = 1.0 / e, 1.0 / i

    dest = np.zeros(p, dtype=np.int64)
    if p == 0 or n == 1:
        return dest

    send0, recv0 = model.initial_loads()
    loads = _Loads(send0.copy(), recv0.copy(), inv_out, inv_in)

    if sort_partitions:
        order = np.argsort(-h.max(axis=0), kind="stable")
    else:
        order = np.arange(p)

    # Gather the partitions' columns in processing order, a contiguous
    # ``(block, n)`` array at a time: each step then reads rows instead
    # of one strided column of ``h``, and ``u = s_k - col`` for the whole
    # block is one subtraction.
    h_t, sizes = h.T, model.partition_sizes
    block = max(1, _GATHER_BLOCK_BYTES // (h.itemsize * n))
    step = loads.step
    for lo in range(0, p, block):
        ks = order[lo:lo + block]
        cols = h_t[ks]
        us = sizes[ks][:, None] - cols
        for k, col, u in zip(ks.tolist(), cols, us):
            dest[k] = step(col, u, locality_tiebreak)[0]

    return dest
