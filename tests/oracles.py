"""Test oracles: Algorithm 1's pseudocode, the whole-matrix plan
evaluation gather, dense partial duplication and the split-residual and
mask-based allocation formulations.

Production code has one implementation of each kernel: the vectorized
Algorithm 1 step of :mod:`repro.core.heuristic`, the row-blocked
gather of :func:`repro.core.model.group_by_destination`, the
column-sparse partial duplication of :mod:`repro.core.skew`, the combined-port
kernels of :mod:`repro.network.schedulers.base`, the
:class:`~repro.network.events.FlowGroups`-backed helpers of
:class:`~repro.network.events.SchedulingContext`, and the schedulers built
on both.  This module keeps the textbook formulations they were derived
from -- a loop-per-candidate transcription of the paper's pseudocode,
one gather of the whole chunk matrix, partial duplication on dense
``(n, p)`` skew matrices, separate egress/ingress residuals, one
boolean mask scan per coflow, one noise-factor lookup per flow -- so
the property suites can pin the production results against them bit
for bit.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.model import ShuffleModel
from repro.core.skew import SkewHandlingResult
from repro.network.events import SchedulingContext
from repro.network.schedulers.base import maxmin_fill_fast
from repro.network.schedulers.dclas import DCLASScheduler
from repro.network.schedulers.deadline import DeadlineScheduler
from repro.network.schedulers.fair import FairSharingScheduler
from repro.network.schedulers.ordered import OrderedCoflowScheduler
from repro.network.schedulers.sequential import SequentialScheduler
from repro.network.schedulers.wss import WSSScheduler
from repro.network.simulator import _ESTIMATE_FLOOR

# ---------------------------------------------------------------------------
# Algorithm 1, transcribed from the paper's pseudocode
# ---------------------------------------------------------------------------


def ccf_heuristic_reference(
    model: ShuffleModel,
    *,
    sort_partitions: bool = True,
    locality_tiebreak: bool = True,
) -> np.ndarray:
    """Direct transcription of the paper's Algorithm 1 pseudocode.

    O(p * n^2); oracle for :func:`repro.core.heuristic.ccf_heuristic` on small
    instances.  For each partition and each candidate destination ``d`` it
    recomputes every ``C_i`` (constraint (3.1)) and ``C_j`` (constraint
    (3.2)) from the assignments made so far, takes
    ``T_d = max(C_i, C_j)`` (line 7), and keeps the minimizing ``d``
    (line 9).
    """
    h = model.h
    n, p = model.n, model.p
    dest = np.full(p, -1, dtype=np.int64)
    if p == 0:
        return np.zeros(0, dtype=np.int64)
    if n == 1:
        return np.zeros(p, dtype=np.int64)

    send0, recv0 = model.initial_loads()
    sizes = model.partition_sizes

    if sort_partitions:
        order = np.argsort(-h.max(axis=0), kind="stable")
    else:
        order = np.arange(p)

    for k in order:
        best_d, best_t, best_local = -1, np.inf, -np.inf
        for d in range(n):
            dest[k] = d
            assigned = dest >= 0
            send = send0.copy()
            recv = recv0.copy()
            for kk in np.flatnonzero(assigned):
                dd = dest[kk]
                send += h[:, kk]
                send[dd] -= h[dd, kk]
                recv[dd] += sizes[kk] - h[dd, kk]
            t_d = max(send.max(), recv.max())
            local = h[d, k]
            better = t_d < best_t - 1e-9
            tie = abs(t_d - best_t) <= 1e-9 + 1e-12 * best_t
            if better or (
                tie and locality_tiebreak and local > best_local + 1e-12
            ):
                best_d, best_t, best_local = d, t_d, local
        dest[k] = best_d

    return dest


# ---------------------------------------------------------------------------
# Plan evaluation: one whole-matrix gather
# ---------------------------------------------------------------------------


def group_by_destination_reference(h: np.ndarray, dest: np.ndarray) -> np.ndarray:
    """``M[i, j] = sum_{k: dest[k]=j} h[i, k]`` from one ``(n, p)`` gather.

    The formulation :func:`repro.core.model.group_by_destination` had
    before it gathered a block of rows at a time: a stable sort of
    ``dest``, the whole ``h[:, order]`` copy, then one ``reduceat``.
    """
    n, p = h.shape
    out = np.zeros((n, n))
    if p == 0:
        return out
    order = np.argsort(dest, kind="stable")
    sorted_dest = dest[order]
    starts = np.flatnonzero(np.r_[True, sorted_dest[1:] != sorted_dest[:-1]])
    out[:, sorted_dest[starts]] = np.add.reduceat(h[:, order], starts, axis=1)
    return out


# ---------------------------------------------------------------------------
# Partial duplication on dense skew matrices
# ---------------------------------------------------------------------------


def partial_duplication_reference(
    h_full: np.ndarray,
    *,
    h_skew_local: np.ndarray | None = None,
    h_broadcast: np.ndarray | None = None,
    rate: float | None = None,
    name: str = "",
) -> SkewHandlingResult:
    """Partial duplication with its inputs as dense ``(n, p)`` matrices.

    Oracle for :meth:`repro.core.skew.PartialDuplication.apply`, which
    takes only the skewed partitions' columns: here ``h_skew_local`` and
    ``h_broadcast`` have the shape of ``h_full`` (zeros by default), the
    residual is ``max(h_full - removed, 0)`` over every column and the
    broadcast per node sums a whole row.
    """
    h_full = np.asarray(h_full, dtype=float)
    n, _ = h_full.shape
    zeros = np.zeros_like(h_full)
    h_skew_local = zeros if h_skew_local is None else np.asarray(h_skew_local, float)
    h_broadcast = zeros if h_broadcast is None else np.asarray(h_broadcast, float)
    for nm, m in (("h_skew_local", h_skew_local), ("h_broadcast", h_broadcast)):
        if m.shape != h_full.shape:
            raise ValueError(f"{nm} must have shape {h_full.shape}")
        if (m < 0).any():
            raise ValueError(f"{nm} must be non-negative")
    removed = h_skew_local + h_broadcast
    if (removed > h_full * (1 + 1e-9) + 1e-6).any():
        raise ValueError("skewed + broadcast bytes exceed the chunk matrix")

    residual = np.maximum(h_full - removed, 0.0)
    b = h_broadcast.sum(axis=1)
    v0 = np.tile(b[:, None], (1, n))
    np.fill_diagonal(v0, 0.0)

    kwargs = {} if rate is None else {"rate": rate}
    model = ShuffleModel(
        h=residual,
        v0=v0,
        local_bytes_pre=float(h_skew_local.sum()),
        name=name,
        **kwargs,
    )
    return SkewHandlingResult(
        model=model,
        local_bytes=float(h_skew_local.sum()),
        broadcast_traffic=float(v0.sum()),
    )


# ---------------------------------------------------------------------------
# Rate-allocation kernels on split egress/ingress residuals
# ---------------------------------------------------------------------------


def maxmin_fill_reference(
    srcs: np.ndarray,
    dsts: np.ndarray,
    res_out: np.ndarray,
    res_in: np.ndarray,
    *,
    subset: np.ndarray | None = None,
    rates: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Progressive-filling (weighted) max-min fair allocation.

    Distributes the residual port capacities ``res_out`` / ``res_in``
    (modified in place) among the flows given by ``subset`` (all flows
    when ``None``), incrementing existing ``rates``.  Oracle for
    :func:`repro.network.schedulers.base.maxmin_fill_fast`.
    """
    n_flows = srcs.shape[0]
    if rates is None:
        rates = np.zeros(n_flows)
    if subset is None:
        subset = np.arange(n_flows)
    if subset.size == 0:
        return rates
    if weights is None:
        w_all = np.ones(n_flows)
    else:
        w_all = np.asarray(weights, dtype=float)
        if w_all.shape != (n_flows,):
            raise ValueError(f"weights must have shape ({n_flows},)")
        if (w_all <= 0).any():
            raise ValueError("weights must be strictly positive")

    n_ports = res_out.shape[0]
    active = np.ones(subset.size, dtype=bool)
    s_src = srcs[subset]
    s_dst = dsts[subset]
    s_w = w_all[subset]

    # Each iteration saturates >= 1 port, so the loop runs <= 2 * n_ports times.
    while active.any():
        cnt_out = np.bincount(
            s_src[active], weights=s_w[active], minlength=n_ports
        )
        cnt_in = np.bincount(
            s_dst[active], weights=s_w[active], minlength=n_ports
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            share_out = np.where(cnt_out > 0, res_out / cnt_out, np.inf)
            share_in = np.where(cnt_in > 0, res_in / cnt_in, np.inf)
        step = min(share_out.min(), share_in.min())
        if not np.isfinite(step):
            break
        step = max(step, 0.0)
        idx = subset[active]
        rates[idx] += step * s_w[active]
        res_out -= step * cnt_out
        res_in -= step * cnt_in
        np.maximum(res_out, 0.0, out=res_out)
        np.maximum(res_in, 0.0, out=res_in)
        # A port is saturated when its residual is (numerically) zero.
        sat_out = (cnt_out > 0) & (res_out <= 1e-9)
        sat_in = (cnt_in > 0) & (res_in <= 1e-9)
        newly_frozen = sat_out[s_src] | sat_in[s_dst]
        if not (newly_frozen & active).any():
            break
        active &= ~newly_frozen
    return rates


def assert_fill_matches_reference(srcs, dsts, res_out, res_in, **kw):
    """``maxmin_fill_fast`` returns the oracle's rates *and* residuals.

    Callers keep filling on the residual after a fill (D-CLAS slices,
    deadline and ordered backfill), so it must match byte for byte too.
    ``kw`` goes to both kernels (``zero_rates`` to the fast one only);
    the inputs are not modified.
    """
    n_ports = res_out.shape[0]
    fast_kw = dict(kw)
    kw.pop("zero_rates", None)
    if kw.get("rates") is not None:
        kw["rates"] = kw["rates"].copy()
        fast_kw["rates"] = fast_kw["rates"].copy()
    ro, ri = res_out.copy(), res_in.copy()
    ref = maxmin_fill_reference(srcs, dsts, ro, ri, **kw)
    res = np.concatenate((res_out, res_in))
    fast = maxmin_fill_fast(srcs, dsts + n_ports, res, **fast_kw)
    assert fast.tobytes() == ref.tobytes()
    assert res.tobytes() == np.concatenate((ro, ri)).tobytes()


def madd_rates_reference(
    srcs: np.ndarray,
    dsts: np.ndarray,
    remaining: np.ndarray,
    res_out: np.ndarray,
    res_in: np.ndarray,
    subset: np.ndarray,
    rates: np.ndarray,
) -> bool:
    """Minimum-Allocation-for-Desired-Duration for one coflow (Varys §4).

    Updates ``rates`` and the residual arrays in place; returns ``False``
    when the coflow is blocked.  Oracle for
    :func:`repro.network.schedulers.base.madd_rates_fast`.
    """
    if subset.size == 0:
        return True
    n_ports = res_out.shape[0]
    send = np.bincount(srcs[subset], weights=remaining[subset], minlength=n_ports)
    recv = np.bincount(dsts[subset], weights=remaining[subset], minlength=n_ports)
    need_out = send > 0
    need_in = recv > 0
    if (res_out[need_out] <= 1e-9).any() or (res_in[need_in] <= 1e-9).any():
        return False
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = max(
            (send[need_out] / res_out[need_out]).max(initial=0.0),
            (recv[need_in] / res_in[need_in]).max(initial=0.0),
        )
    if gamma <= 0:
        return True
    alloc = remaining[subset] / gamma
    rates[subset] += alloc
    res_out -= np.bincount(srcs[subset], weights=alloc, minlength=n_ports)
    res_in -= np.bincount(dsts[subset], weights=alloc, minlength=n_ports)
    np.maximum(res_out, 0.0, out=res_out)
    np.maximum(res_in, 0.0, out=res_in)
    return True


# ---------------------------------------------------------------------------
# Mask-based per-coflow queries
# ---------------------------------------------------------------------------


def mask_value_sums(coflow_ids: np.ndarray, values: np.ndarray) -> list[float]:
    """Per-coflow sums, ascending coflow id (oracle for ``value_sums``)."""
    return [float(values[coflow_ids == c].sum()) for c in np.unique(coflow_ids)]


def mask_all_done(coflow_ids: np.ndarray, done: np.ndarray) -> list[bool]:
    """Per coflow: every flow is done (oracle for ``all_done_mask``)."""
    return [
        not (~done & (coflow_ids == c)).any() for c in np.unique(coflow_ids)
    ]


class MaskContext(SchedulingContext):
    """A :class:`SchedulingContext` whose per-coflow queries scan masks."""

    def active_coflow_ids(self) -> list[int]:
        return [int(c) for c in np.unique(self.coflow_ids)]

    def flows_of(self, coflow_id: int) -> np.ndarray:
        return np.nonzero(self.coflow_ids == coflow_id)[0]

    def remaining_volumes(self) -> list[float]:
        return [self.remaining_volume(c) for c in self.active_coflow_ids()]

    def coflow_rate_sums(self, rates: np.ndarray) -> list[float]:
        return [
            float(rates[self.coflow_ids == c].sum())
            for c in self.active_coflow_ids()
        ]

    def remaining_bottlenecks(self) -> list[float]:
        return [
            self.remaining_bottleneck(c) for c in self.active_coflow_ids()
        ]


def mask_context(ctx: SchedulingContext) -> MaskContext:
    """The same snapshot as ``ctx``, answering queries by mask scans."""
    return MaskContext(
        **{f.name: getattr(ctx, f.name) for f in dataclasses.fields(ctx)}
    )


def noise_view_reference(
    remaining: np.ndarray,
    coflow_ids: np.ndarray,
    srcs: np.ndarray,
    dsts: np.ndarray,
    noise,
) -> np.ndarray:
    """The scheduler's noisy view, one factor lookup per flow."""
    out = np.empty(remaining.shape[0])
    for i in range(remaining.shape[0]):
        out[i] = remaining[i] * noise.flow_factor(
            int(coflow_ids[i]), int(srcs[i]), int(dsts[i])
        )
    return np.maximum(out, _ESTIMATE_FLOOR)


# ---------------------------------------------------------------------------
# Scheduler allocations on split residuals and mask queries
# ---------------------------------------------------------------------------


def _residuals(ctx: SchedulingContext) -> tuple[np.ndarray, np.ndarray]:
    return ctx.fabric.egress_rates.copy(), ctx.fabric.ingress_rates.copy()


def _fair(sched: FairSharingScheduler, ctx: MaskContext) -> np.ndarray:
    weights = None
    if sched.use_weights and ctx.n_flows:
        weights = np.array(
            [ctx.progress[int(c)].weight for c in ctx.coflow_ids]
        )
        if np.all(weights == 1.0):
            weights = None
    res_out, res_in = _residuals(ctx)
    return maxmin_fill_reference(
        ctx.srcs, ctx.dsts, res_out, res_in, weights=weights
    )


def _wss(sched: WSSScheduler, ctx: MaskContext) -> np.ndarray:
    rates = np.zeros(ctx.n_flows)
    order = sorted(
        ctx.active_coflow_ids(),
        key=lambda c: (ctx.progress[c].arrival_time, c),
    )
    res_out, res_in = _residuals(ctx)
    n = ctx.fabric.n_ports
    for cid in order:
        idx = ctx.flows_of(cid)
        weights = ctx.remaining[idx]
        total = weights.sum()
        if total <= 0:
            continue
        out = np.bincount(ctx.srcs[idx], weights=weights, minlength=n)
        inb = np.bincount(ctx.dsts[idx], weights=weights, minlength=n)
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha_out = np.where(out > 0, res_out / out, np.inf).min()
            alpha_in = np.where(inb > 0, res_in / inb, np.inf).min()
        alpha = min(alpha_out, alpha_in)
        if not np.isfinite(alpha) or alpha <= 0:
            continue
        alloc = alpha * weights
        rates[idx] += alloc
        res_out -= np.bincount(ctx.srcs[idx], weights=alloc, minlength=n)
        res_in -= np.bincount(ctx.dsts[idx], weights=alloc, minlength=n)
        np.maximum(res_out, 0.0, out=res_out)
        np.maximum(res_in, 0.0, out=res_in)
    maxmin_fill_reference(ctx.srcs, ctx.dsts, res_out, res_in, rates=rates)
    return rates


def _ordered(sched: OrderedCoflowScheduler, ctx: MaskContext) -> np.ndarray:
    if type(sched).priority_key is OrderedCoflowScheduler.priority_key:
        # Permutation schedulers (wcct5, lpcct) rank the whole set at once.
        keys = sched.priority_keys(ctx)
    else:
        keys = {c: sched.priority_key(ctx, c) for c in ctx.active_coflow_ids()}
    order = sorted(keys, key=lambda c: (*keys[c], c))
    rates = np.zeros(ctx.n_flows)
    res_out, res_in = _residuals(ctx)
    for cid in order:
        madd_rates_reference(
            ctx.srcs, ctx.dsts, ctx.remaining, res_out, res_in,
            ctx.flows_of(cid), rates,
        )
    if sched.backfill:
        maxmin_fill_reference(ctx.srcs, ctx.dsts, res_out, res_in, rates=rates)
    return rates


def _dclas(sched: DCLASScheduler, ctx: MaskContext) -> np.ndarray:
    rates = np.zeros(ctx.n_flows)
    order = sorted(
        ctx.active_coflow_ids(),
        key=lambda c: (
            sched.queue_of(ctx.progress[c].sent_bytes),
            ctx.progress[c].arrival_time,
            c,
        ),
    )
    res_out, res_in = _residuals(ctx)
    if sched.queue_weight_decay > 0:
        queues: dict[int, list[int]] = {}
        for cid in order:
            q = sched.queue_of(ctx.progress[cid].sent_bytes)
            queues.setdefault(q, []).append(cid)
        if len(queues) > 1:
            weights = {q: sched.queue_weight_decay ** q for q in queues}
            total = sum(weights.values())
            base_out = res_out.copy()
            base_in = res_in.copy()
            for q, cids in sorted(queues.items()):
                frac = weights[q] / total
                slice_out = np.minimum(base_out * frac, res_out)
                slice_in = np.minimum(base_in * frac, res_in)
                before_out = slice_out.copy()
                before_in = slice_in.copy()
                idx = np.concatenate([ctx.flows_of(c) for c in cids])
                maxmin_fill_reference(
                    ctx.srcs, ctx.dsts, slice_out, slice_in,
                    subset=idx, rates=rates,
                )
                res_out -= before_out - slice_out
                res_in -= before_in - slice_in
                np.maximum(res_out, 0.0, out=res_out)
                np.maximum(res_in, 0.0, out=res_in)
    for cid in order:
        maxmin_fill_reference(
            ctx.srcs, ctx.dsts, res_out, res_in,
            subset=ctx.flows_of(cid), rates=rates,
        )
    return rates


def _deadline_admissible(
    ctx: MaskContext,
    idx: np.ndarray,
    time_left: float,
    res_out: np.ndarray,
    res_in: np.ndarray,
) -> bool:
    if time_left <= 0:
        return False
    n = ctx.fabric.n_ports
    need = ctx.remaining[idx] / time_left
    out = np.bincount(ctx.srcs[idx], weights=need, minlength=n)
    inb = np.bincount(ctx.dsts[idx], weights=need, minlength=n)
    return bool((out <= res_out * (1 + 1e-9)).all()
                and (inb <= res_in * (1 + 1e-9)).all())


def _deadline(sched: DeadlineScheduler, ctx: MaskContext) -> np.ndarray:
    """Records admissions on ``sched`` -- pass a twin, not the live one."""
    admitted = sched._admitted
    rates = np.zeros(ctx.n_flows)
    res_out, res_in = _residuals(ctx)
    n = ctx.fabric.n_ports
    deadline_ids = [
        c
        for c in ctx.active_coflow_ids()
        if ctx.progress[c].deadline is not None
    ]
    deadline_ids.sort(key=lambda c: (ctx.progress[c].arrival_time, c))
    reserved = set()
    for cid in deadline_ids:
        idx = ctx.flows_of(cid)
        time_left = ctx.progress[cid].absolute_deadline - ctx.time
        if cid not in admitted:
            admitted[cid] = _deadline_admissible(
                ctx, idx, time_left, res_out, res_in
            )
        if not admitted[cid] or time_left <= 0:
            continue
        reserved.add(cid)
        need = ctx.remaining[idx] / time_left
        out = np.bincount(ctx.srcs[idx], weights=need, minlength=n)
        inb = np.bincount(ctx.dsts[idx], weights=need, minlength=n)
        if not ((out <= res_out * (1 + 1e-9)).all()
                and (inb <= res_in * (1 + 1e-9)).all()):
            with np.errstate(divide="ignore"):
                gamma = max((out[out > 0] / res_out[out > 0]).max(initial=0.0),
                            (inb[inb > 0] / res_in[inb > 0]).max(initial=0.0))
            need = need / gamma
            out = np.bincount(ctx.srcs[idx], weights=need, minlength=n)
            inb = np.bincount(ctx.dsts[idx], weights=need, minlength=n)
        rates[idx] += need
        res_out -= out
        res_in -= inb
        np.maximum(res_out, 0.0, out=res_out)
        np.maximum(res_in, 0.0, out=res_in)
    if sched.backfill:
        maxmin_fill_reference(ctx.srcs, ctx.dsts, res_out, res_in, rates=rates)
    else:
        guaranteed = np.array([int(c) in reserved for c in ctx.coflow_ids])
        maxmin_fill_reference(
            ctx.srcs, ctx.dsts, res_out, res_in,
            subset=np.flatnonzero(~guaranteed), rates=rates,
        )
    return rates


def _sequential(sched: SequentialScheduler, ctx: MaskContext) -> np.ndarray:
    rates = np.zeros(ctx.n_flows)
    if ctx.n_flows == 0:
        return rates
    arrivals = np.array(
        [ctx.progress[int(c)].arrival_time for c in ctx.coflow_ids]
    )
    order = np.lexsort((ctx.dsts, ctx.srcs, ctx.coflow_ids, arrivals))
    head = int(order[0])
    rates[head] = min(
        ctx.fabric.egress_rates[ctx.srcs[head]],
        ctx.fabric.ingress_rates[ctx.dsts[head]],
    )
    return rates


_ORACLES = (
    (FairSharingScheduler, _fair),
    (WSSScheduler, _wss),
    (OrderedCoflowScheduler, _ordered),
    (DCLASScheduler, _dclas),
    (DeadlineScheduler, _deadline),
    (SequentialScheduler, _sequential),
)


def reference_allocate(sched, ctx: SchedulingContext) -> np.ndarray:
    """The oracle allocation of ``sched``'s discipline for ``ctx``.

    Runs on split residuals and mask-scanning queries.  Stateful
    disciplines (deadline admissions, the wcct5/lpcct permutation cache)
    update ``sched``, so pass a twin of the scheduler under test.
    """
    for cls, oracle in _ORACLES:
        if isinstance(sched, cls):
            return oracle(sched, mask_context(ctx))
    raise TypeError(f"no oracle for {type(sched).__name__}")
