"""Scheduler interface and shared rate-allocation kernels.

``maxmin_fill_fast`` / ``madd_rates_fast`` are the waterfill and MADD
primitives every rate-allocating discipline builds on.  They work on a
combined-port layout: egress cell ``p`` and ingress cell ``n_ports + p``
share one residual vector, halving the bincounts, divisions, minima and
clamps per waterfill iteration.  The unweighted waterfill iterates over
those ``2 * n_ports`` cells, not over the flows: a CSR index built once
per call hands each saturated cell its flows' far cells, no per-flow
liveness is kept, residuals are clamped once at the end and rates
written once.  The weighted waterfill compresses frozen flows out of
its working arrays.  Every transformation preserves the exact float
semantics of the textbook split-residual formulation (see the function
docstrings); the test suite keeps that formulation as an oracle
(``tests/oracles.py``) and pins the kernels against it bit for bit, on
rates and residuals.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.network.events import SchedulingContext

__all__ = [
    "CoflowScheduler",
    "maxmin_fill_fast",
    "madd_rates_fast",
]


class CoflowScheduler(ABC):
    """Base class for inter-coflow scheduling disciplines.

    Subclasses implement :meth:`allocate`, mapping the current simulator
    state to per-flow rates.  Rates must respect the fabric's per-port
    ingress/egress capacities; the simulator validates every allocation.
    """

    #: Registry name; overridden by subclasses.
    name: str = "base"

    #: Whether the discipline inspects remaining volumes (clairvoyant) or
    #: only bytes already sent (non-clairvoyant, e.g. Aalo).
    clairvoyant: bool = True

    @abstractmethod
    def allocate(self, ctx: SchedulingContext) -> np.ndarray:
        """Return an array of rates (bytes/s) aligned with ``ctx`` flows."""

    def next_event_hint(
        self, ctx: SchedulingContext, rates: np.ndarray
    ) -> float | None:
        """Upper bound on the epoch length, or ``None`` for no bound.

        The fluid simulator advances between flow completions and coflow
        arrivals; a discipline whose *priorities* change mid-epoch (e.g.
        D-CLAS queue transitions as attained service grows) returns the
        time until its next internal event so the simulator re-invokes it
        there.  The simulator calls it every epoch when a subclass
        overrides it, with ``ctx.progress[cid].sent_bytes`` current up
        to ``ctx.time``, as in every scheduler method.
        """
        return None

    def rates_valid_until(
        self, ctx: SchedulingContext, rates: np.ndarray
    ) -> float:
        """Absolute time until which the allocation just returned stays valid.

        The simulator's event-horizon path (``batch_events=True``) calls
        this immediately after :meth:`allocate` and *reuses* the returned
        rate array on later epochs as long as three things hold: the
        active flow set is unchanged, the fabric capacities and recovery
        state are unchanged, and the clock is still strictly before the
        returned time.  A discipline may return a time beyond
        ``ctx.time`` only when, under exactly those conditions, a fresh
        :meth:`allocate` would return a bit-identical array.
        :meth:`next_event_hint` still runs every epoch with up-to-date
        ``progress``, so it must not depend on ``allocate`` side effects.
        The simulator credits ``sent_bytes`` lazily, but settles the
        credit before any scheduler method runs, so whenever one of
        them reads ``ctx.progress[cid].sent_bytes`` it is current up to
        ``ctx.time``.

        The base implementation returns ``ctx.time`` -- never reuse --
        which is the only safe answer for any discipline that reads
        remaining volumes (MADD-style clairvoyant schedulers re-rank as
        volumes drain) or mutates internal state in :meth:`allocate`.
        """
        return ctx.time

    def reset(self) -> None:
        """Clear any cross-epoch state (called once per simulation run)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


#: Fill size (a subset, or every flow) up to which zero-start waterfills
#: drop to plain-Python scalar arithmetic; scalar IEEE doubles follow the
#: exact same operation sequence, so results stay bit-identical.  On
#: random fills (50 ports) the cell kernel is the faster one from about
#: 12 flows (104 vs 82 us at 16 flows, 277 vs 120 us at 32), but on
#: ``serve-overload``, the only perfbench workload that reaches this
#: path, a threshold of 8 or 12 moved nothing beyond noise, while
#: deleting the scalar twin cost 3-5 %; so it stays, at 32.
_SCALAR_MAX = 32
#: MADD is a single pass (no iteration), so numpy amortizes better; the
#: scalar version only wins for very narrow coflows.
_MADD_SCALAR_MAX = 4


def _maxmin_small_zero(
    srcs: np.ndarray,
    dsts_off: np.ndarray,
    res: np.ndarray,
    subset: np.ndarray,
    rates: np.ndarray,
) -> np.ndarray:
    """Scalar waterfill for a small fill whose rates start at zero.

    ``subset`` lists the filled flows: a coflow's, or ``arange(n_flows)``
    for an all-flows fill.

    Mirrors the oracle's iteration exactly: integer per-port counts,
    ``share = res / cnt`` per busy port, one uniform ``step`` (the exact
    minimum), ``res -= step * cnt`` per cell, clamp, freeze.  Because the
    subset's rates are all zero on entry, the per-iteration ``rates[i] +=
    step`` sequence equals assigning the running level at freeze time
    (``0 + s1 + ... + sk`` associates identically), so each flow's rate
    is written once.
    """
    idxs = subset.tolist()
    ss = srcs[subset].tolist()
    ds = dsts_off[subset].tolist()
    item = res.item
    level = 0.0
    while idxs:
        cnt: dict[int, int] = {}
        for p in ss:
            cnt[p] = cnt.get(p, 0) + 1
        for p in ds:
            cnt[p] = cnt.get(p, 0) + 1
        step = np.inf
        for p, c in cnt.items():
            sh = item(p) / c
            if sh < step:
                step = sh
        if not np.isfinite(step):  # pragma: no cover - defensive
            break
        if step < 0.0:  # pragma: no cover - residuals are clamped >= 0
            step = 0.0
        level = level + step
        sat = None
        for p, c in cnt.items():
            v = item(p) - step * c
            if v < 0.0:
                v = 0.0
            res[p] = v
            if v <= 1e-9:
                if sat is None:
                    sat = {p}
                else:
                    sat.add(p)
        if sat is None:
            break
        kept_i: list[int] = []
        kept_s: list[int] = []
        kept_d: list[int] = []
        frozen: list[int] = []
        for i, s, d in zip(idxs, ss, ds):
            if s in sat or d in sat:
                frozen.append(i)
            else:
                kept_i.append(i)
                kept_s.append(s)
                kept_d.append(d)
        if not frozen:
            break
        for i in frozen:
            rates[i] = level
        idxs, ss, ds = kept_i, kept_s, kept_d
    for i in idxs:
        rates[i] = level
    return rates


def _madd_small(
    srcs: np.ndarray,
    dsts_off: np.ndarray,
    remaining: np.ndarray,
    res: np.ndarray,
    subset: np.ndarray,
    rates: np.ndarray,
) -> bool:
    """Scalar MADD for a small coflow; bit-identical to the oracle.

    Per-port loads accumulate in flow order (same sequence as the
    bincount), the blocked test and ``Gamma`` cover exactly the ports
    with positive load, and the residual decrement per cell subtracts the
    flow-ordered sum of allocations -- one subtraction per port, exactly
    like ``res -= bincount(...)``.
    """
    sl = srcs[subset].tolist()
    dl = dsts_off[subset].tolist()
    rl = remaining[subset].tolist()
    load: dict[int, float] = {}
    for p, r in zip(sl, rl):
        load[p] = load.get(p, 0.0) + r
    for p, r in zip(dl, rl):
        load[p] = load.get(p, 0.0) + r
    item = res.item
    gamma = 0.0
    for p, ld in load.items():
        if ld <= 0:
            continue
        rp = item(p)
        if rp <= 1e-9:
            return False
        q = ld / rp
        if q > gamma:
            gamma = q
    if gamma <= 0:
        return True
    dec: dict[int, float] = {}
    alloc = []
    for s, d, r in zip(sl, dl, rl):
        a = r / gamma
        alloc.append(a)
        dec[s] = dec.get(s, 0.0) + a
        dec[d] = dec.get(d, 0.0) + a
    # Subset indices are unique, so the fancy += / -= below perform one
    # per-element add per cell -- the same additions as scalar writes.
    rates[subset] += np.asarray(alloc)
    res[np.fromiter(dec.keys(), dtype=np.intp, count=len(dec))] -= (
        np.fromiter(dec.values(), dtype=np.float64, count=len(dec))
    )
    np.maximum(res, 0.0, out=res)
    return True


def maxmin_fill_fast(
    srcs: np.ndarray,
    dsts_off: np.ndarray,
    res: np.ndarray,
    *,
    subset: np.ndarray | None = None,
    rates: np.ndarray | None = None,
    weights: np.ndarray | None = None,
    zero_rates: bool = False,
) -> np.ndarray:
    """Progressive-filling (weighted) max-min fair allocation.

    Distributes the residual port capacities ``res`` (modified in place)
    among the flows given by ``subset`` (indices into ``srcs``; all flows
    when ``None``).  Existing ``rates`` are incremented, supporting use
    as a backfill pass after a priority pass.  Progressive filling raises
    the rate of all unfrozen flows uniformly (or proportionally to
    ``weights``) until some port saturates, freezes the flows crossing
    that port, and repeats -- the classical waterfilling algorithm.

    ``dsts_off`` is ``dsts + n_ports`` and ``res`` the length ``2 *
    n_ports`` concatenation of the egress and ingress residuals; one
    vector op per iteration then covers both directions, and one
    ``min`` over the combined share vector equals the oracle's
    ``min(out.min(), in.min())`` (``min`` never rounds).

    ``zero_rates=True`` promises the subset's rates are all zero on
    entry (automatic when ``rates`` is None).  The oracle's
    per-iteration ``rates[idx] += step`` then accumulates ``0 + s1 + ...
    + sk`` per flow -- the same left-associated additions as a running
    scalar level -- so each rate is the level at the flow's freeze
    iteration.  Unweighted zero-start fills of at most ``_SCALAR_MAX``
    flows run on the scalar kernel (:func:`_maxmin_small_zero`), other
    unweighted fills in port-cell space (:func:`_maxmin_cells`) and
    weighted ones in flow space (:func:`_maxmin_weighted`).
    """
    n_flows = srcs.shape[0]
    if rates is None:
        rates = np.zeros(n_flows)
        zero_rates = True
    if weights is None:
        if subset is None:
            if zero_rates and n_flows <= _SCALAR_MAX:
                return _maxmin_small_zero(
                    srcs, dsts_off, res, np.arange(n_flows), rates
                )
            port = np.concatenate((srcs, dsts_off))
        elif subset.size == 0:
            return rates
        elif zero_rates and subset.size <= _SCALAR_MAX:
            return _maxmin_small_zero(srcs, dsts_off, res, subset, rates)
        else:
            port = np.concatenate((srcs[subset], dsts_off[subset]))
        return _maxmin_cells(port, res, subset, rates, zero_rates)
    w_all = np.asarray(weights, dtype=float)
    if w_all.shape != (n_flows,):
        raise ValueError(f"weights must have shape ({n_flows},)")
    if (w_all <= 0).any():
        raise ValueError("weights must be strictly positive")
    return _maxmin_weighted(srcs, dsts_off, res, subset, rates, w_all)


def _maxmin_cells(
    port: np.ndarray,
    res: np.ndarray,
    subset: np.ndarray | None,
    rates: np.ndarray,
    zero_rates: bool,
) -> np.ndarray:
    """Unweighted waterfill that iterates over port cells, not flows.

    ``port`` is ``[srcs..., dsts_off...]`` of the ``m`` filled flows.
    Each iteration does the oracle's per-cell float sequence on the ``2
    * n_ports`` cells only -- ``share = res / cnt``, the minimum
    ``step``, ``res -= step * cnt``, saturated cells -- because every
    cell still in play holds an integer count of its live flows.  A CSR
    index (one ``argsort`` of ``port``) lists each cell's far cells, so
    freezing a saturated cell subtracts one bincount of its slice.  No
    liveness is tracked: a flow leaves a count only when its other end
    saturates, once, so no count goes negative, and a count reached
    through a flow frozen earlier is a saturated cell's, never read
    again.  The oracle's clamp is a no-op on cells still in play (above
    ``1e-9``), so one clamp at the end stands for it.  Memory is ``O(F
    + P)``.

    Rates are written once at the end.  A flow frozen after ``k`` steps
    gets ``r + s1 + ... + sk`` left-associated, the oracle's
    per-iteration ``+= step * 1.0`` sequence: one gather of the running
    level when ``zero_rates``, otherwise one slice add per step over the
    flows sorted by freeze iteration.
    """
    two_m = port.shape[0]
    m = two_m // 2
    if m == 0:
        return rates
    two_n = res.shape[0]
    size = np.bincount(port, minlength=two_n)
    bounds = [0, *np.cumsum(size).tolist()]
    far = np.concatenate((port[m:], port[:m]))
    by_cell = far[np.argsort(port, kind="stable")]
    sat_at = np.full(two_n, two_n + 1, dtype=np.intp)  # step count at freeze
    cnt = size.astype(float)
    # Idle and saturated cells sit at +inf: they never set the step or
    # saturate, and ``inf - step * cnt`` leaves them inert whatever
    # their count.  A cell emptied through its far ends keeps its finite
    # residual over a zero count (share +inf, hence the silenced divide
    # warning) and so never changes again.
    work = np.where(size > 0, res, np.inf)
    share = np.empty(two_n)
    drop = np.empty(two_n)
    hit = np.empty(two_n, dtype=bool)
    ones = np.ones(two_m)
    steps: list[float] = []
    with np.errstate(divide="ignore"):
        while True:
            np.divide(work, cnt, out=share)
            step = share[share.argmin()]
            if not step < np.inf:
                break  # every flow frozen
            step = max(step, 0.0)
            steps.append(step)
            work -= np.multiply(cnt, step, out=drop)
            np.less_equal(work, 1e-9, out=hit)
            sat = hit.nonzero()[0]
            # A saturated cell's residual is final (clamped at the end):
            # no live flow crosses it again.
            if sat.size == 1:
                c = sat.item()
                res[c] = work[c]
                work[c] = np.inf
                sat_at[c] = len(steps)
                gone = by_cell[bounds[c]:bounds[c + 1]]
            elif sat.size:
                res[sat] = work[sat]
                work[sat] = np.inf
                sat_at[sat] = len(steps)
                gone = far[hit[port]]
            else:
                break
            cnt -= np.bincount(gone, weights=ones[:gone.size], minlength=two_n)
    if steps:
        # Cells still in play hold their final residual in ``work``; the
        # oracle clamps idle and saturated cells too.
        np.copyto(res, work, where=work < np.inf)
        np.maximum(res, 0.0, out=res)
    frozen_after = np.minimum(sat_at[port[:m]], sat_at[port[m:]])
    np.minimum(frozen_after, len(steps), out=frozen_after)
    if zero_rates:
        levels = [0.0]
        for step in steps:
            levels.append(levels[-1] + step)
        vals = np.array(levels)[frozen_after]
        if subset is None:
            rates[:] = vals
        else:
            rates[subset] = vals
        return rates
    by_freeze = np.argsort(frozen_after, kind="stable")
    # Step j (1-based) reaches the flows frozen after j or more steps.
    first = np.cumsum(np.bincount(frozen_after)[:len(steps)]).tolist()
    tgt = by_freeze if subset is None else subset[by_freeze]
    vals = rates[tgt]
    for step, lo in zip(steps, first):
        vals[lo:] += step
    rates[tgt] = vals
    return rates


def _maxmin_weighted(
    srcs: np.ndarray,
    dsts_off: np.ndarray,
    res: np.ndarray,
    subset: np.ndarray | None,
    rates: np.ndarray,
    w_all: np.ndarray,
) -> np.ndarray:
    """Weighted waterfill in flow space.

    Frozen flows are compressed out of the working arrays; the survivors
    keep their relative order, so each iteration's weighted bincount
    over ``[srcs..., dsts_off...]`` accumulates every cell in the
    oracle's flow order (the two halves hit disjoint cells).  Rates are
    added per iteration: ``sum(s_j * w)`` and ``(sum s_j) * w`` round
    differently.
    """
    if subset is None:
        cur_idx: np.ndarray | None = None  # all flows; materialized lazily
        port = np.concatenate((srcs, dsts_off))
        cur_w = w_all
    else:
        cur_idx = subset
        port = np.concatenate((srcs[subset], dsts_off[subset]))
        cur_w = w_all[subset]
    m = cur_w.shape[0]
    if m == 0:
        return rates
    two_n = res.shape[0]
    share = np.empty(two_n)
    while True:
        cnt = np.bincount(
            port, weights=np.concatenate((cur_w, cur_w)), minlength=two_n
        )
        busy = cnt > 0
        share.fill(np.inf)
        np.divide(res, cnt, out=share, where=busy)
        step = share.min()
        if not np.isfinite(step):  # pragma: no cover - defensive
            break
        step = max(step, 0.0)
        if cur_idx is None:
            rates += step * cur_w
        else:
            rates[cur_idx] += step * cur_w
        res -= step * cnt
        np.maximum(res, 0.0, out=res)
        sat = busy & (res <= 1e-9)
        fr2 = sat[port]
        frozen = fr2[:m] | fr2[m:]
        if not frozen.any():
            break
        keep = ~frozen
        port = port[np.concatenate((keep, keep))]
        if cur_idx is None:
            cur_idx = np.flatnonzero(keep)
        else:
            cur_idx = cur_idx[keep]
        cur_w = cur_w[keep]
        m = cur_idx.shape[0]
        if m == 0:
            break
    return rates


def madd_rates_fast(
    srcs: np.ndarray,
    dsts_off: np.ndarray,
    remaining: np.ndarray,
    res: np.ndarray,
    subset: np.ndarray,
    rates: np.ndarray,
) -> bool:
    """Minimum-Allocation-for-Desired-Duration for one coflow (Varys §4).

    Gives every flow of the coflow rate ``remaining / Gamma`` where
    ``Gamma`` is the coflow's effective bottleneck against the *residual*
    capacities, so all flows finish together at the earliest possible
    time without hogging bandwidth.  Updates ``rates`` and ``res`` in
    place.  Returns ``False`` when the coflow is blocked (some required
    port has no residual capacity).

    Same conventions as :func:`maxmin_fill_fast`: ``dsts_off = dsts +
    n_ports`` and ``res`` is the combined residual vector (modified in
    place).  The single bincount reaches disjoint cells for the egress
    and ingress halves in flow order, the blocked test is an
    order-independent ``any``, and one ``max`` over the combined loads
    equals the oracle's max of the two per-side maxima.
    """
    if subset.size == 0:
        return True
    if subset.size <= _MADD_SCALAR_MAX:
        return _madd_small(srcs, dsts_off, remaining, res, subset, rates)
    two_n = res.shape[0]
    rem = remaining[subset]
    port = np.concatenate((srcs[subset], dsts_off[subset]))
    load = np.bincount(
        port, weights=np.concatenate((rem, rem)), minlength=two_n
    )
    busy = load > 0
    res_busy = res[busy]
    if (res_busy <= 1e-9).any():
        return False
    gamma = (load[busy] / res_busy).max(initial=0.0)
    if gamma <= 0:
        return True
    alloc = rem / gamma
    rates[subset] += alloc
    res -= np.bincount(
        port, weights=np.concatenate((alloc, alloc)), minlength=two_n
    )
    np.maximum(res, 0.0, out=res)
    return True
