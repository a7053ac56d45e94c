"""Approximation schedulers with proven weighted-CCT guarantees.

Both disciplines here come from the theory literature on minimizing the
*total weighted completion time* ``sum_k w_k C_k`` of coflows on a
non-blocking switch, and both follow the same two-phase shape:

1. compute a priority *permutation* of the active coflows (this is where
   the approximation guarantee lives), then
2. assign rates with weighted-SEBF machinery: per-coflow MADD in
   permutation order against residual port capacities, plus a work-
   conserving max-min backfill (the :class:`OrderedCoflowScheduler`
   template).

:class:`WeightedApproxScheduler` (``wcct5``) implements the combinatorial
permutation rule analyzed by Shafiee & Ghaderi (arXiv:1704.08357): a
primal-dual "most-loaded-port, cheapest-coflow-last" sweep that is a
5-approximation with release times (4 without).

:class:`LPOrderingScheduler` (``lpcct``) implements the Qiu/Stein/Zhong
rule (SPAA'15; experimental analysis in arXiv:1603.07981): solve the
interval-indexed LP relaxation from :mod:`repro.network.bounds` over the
remaining instance and order coflows by fractional LP completion time, a
deterministic 67/3-approximation.  Their experimental-analysis paper --
whose methodology the ``tournament`` experiment reproduces -- found the
achieved objective is typically within a few percent of the LP bound,
far below the worst-case ratio.

Both schedulers recompute their permutation only when the *set* of
active coflows changes (arrival or completion); between set changes the
order is frozen, which keeps the per-epoch cost at the MADD sweep and
keeps runs deterministic.  Both declare the conservative
``rates_valid_until`` horizon (see the method docstrings) so event
batching stays bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.network.bounds import interval_indexed_lp
from repro.network.events import SchedulingContext
from repro.network.schedulers.ordered import OrderedCoflowScheduler

__all__ = ["WeightedApproxScheduler", "LPOrderingScheduler"]


def _remaining_load_matrix(
    ctx: SchedulingContext, cids: list[int]
) -> np.ndarray:
    """``(K, 2 * n_ports)`` remaining bytes per coflow per port direction.

    Columns ``[0, P)`` are egress (send) loads, ``[P, 2P)`` ingress
    (receive) loads -- the same combined-resource layout the fast MADD
    kernels and :func:`repro.network.bounds.interval_indexed_lp` use.
    """
    n_ports = ctx.fabric.n_ports
    loads = np.zeros((len(cids), 2 * n_ports))
    for row, cid in enumerate(cids):
        idx = ctx.flows_of(cid)
        loads[row, :n_ports] = np.bincount(
            ctx.srcs[idx], weights=ctx.remaining[idx], minlength=n_ports
        )
        loads[row, n_ports:] = np.bincount(
            ctx.dsts[idx], weights=ctx.remaining[idx], minlength=n_ports
        )
    return loads


class _PermutationScheduler(OrderedCoflowScheduler):
    """Shared base: cache a computed permutation per active-coflow set."""

    def __init__(self, *, backfill: bool = True) -> None:
        super().__init__(backfill=backfill)
        self._order_key: tuple[int, ...] | None = None
        self._ranks: dict[int, int] = {}

    def reset(self) -> None:
        self._order_key = None
        self._ranks = {}

    def _compute_ranks(
        self, ctx: SchedulingContext, cids: list[int]
    ) -> dict[int, int]:
        raise NotImplementedError

    def coflow_order(self, ctx: SchedulingContext) -> list[int]:
        order = super().coflow_order(ctx)
        if len(order) < 2:
            # The base skips priority_keys for a lone coflow; drop the
            # cached set so the next multi-coflow set recomputes ranks
            # from current volumes, as it would had this set been keyed.
            self._order_key = None
        return order

    def priority_keys(self, ctx: SchedulingContext) -> dict[int, tuple]:
        cids = [int(c) for c in ctx.active_coflow_ids()]
        key = tuple(cids)
        if key != self._order_key:
            self._ranks = self._compute_ranks(ctx, cids)
            self._order_key = key
        return {c: (self._ranks[c],) for c in cids}

    def rates_valid_until(self, ctx: SchedulingContext, rates) -> float:
        """Expire immediately: MADD rates track draining volumes.

        The permutation itself is frozen between coflow-set changes, but
        the *rates* are not reusable: each epoch's MADD allocation divides
        remaining volumes by the coflow's current bottleneck, and the
        backfill pass then redistributes slack, so a fresh ``allocate()``
        at a later clock yields bit-different rates even with an
        unchanged flow set.  Returning ``ctx.time`` (the base-class
        contract's "never reuse" horizon) keeps batched and unbatched
        event loops bit-identical.
        """
        return ctx.time


class WeightedApproxScheduler(_PermutationScheduler):
    """Shafiee-Ghaderi 5-approximation for weighted coflow completion time.

    Permutation rule (the combinatorial variant of their algorithm, in
    the largest-load-last tradition of Mastrolilli et al.'s MUSSQ):
    repeatedly find the currently most-loaded port ``b`` over the
    unscheduled coflows' remaining bytes, and schedule *last* the
    unscheduled coflow minimizing ``w_k / d_b(k)`` -- the cheapest
    weight-per-byte coflow on the bottleneck, i.e. the one whose delay
    costs least while relieving the critical port the most.  Rates then
    follow weighted-SEBF over that order.  Guarantee: ``sum w_k C_k <=
    5 * OPT`` with release times (4 without).
    """

    name = "wcct5"

    def _compute_ranks(
        self, ctx: SchedulingContext, cids: list[int]
    ) -> dict[int, int]:
        loads = _remaining_load_matrix(ctx, cids)
        weights = np.array(
            [ctx.progress[c].weight for c in cids], dtype=float
        )
        n = len(cids)
        alive = np.ones(n, dtype=bool)
        ranks: dict[int, int] = {}
        for slot in range(n - 1, -1, -1):
            total = loads[alive].sum(axis=0)
            b = int(np.argmax(total))
            col = loads[:, b]
            ratio = np.full(n, np.inf)
            cand = alive & (col > 0)
            if cand.any():
                ratio[cand] = weights[cand] / col[cand]
            else:
                # Degenerate: no remaining load anywhere -- fall back to
                # retiring the lightest-weight coflow for determinism.
                ratio[alive] = weights[alive]
            # argmin takes the first minimum; rows are in ascending-cid
            # order, so ties break toward the lower coflow id.
            k = int(np.argmin(ratio))
            ranks[cids[k]] = slot
            alive[k] = False
        return ranks


class LPOrderingScheduler(_PermutationScheduler):
    """Qiu/Stein/Zhong LP-ordering scheduler (deterministic 67/3-approx).

    Solves the interval-indexed LP relaxation over the *remaining*
    instance (remaining per-port loads, current fabric rates, all active
    coflows treated as released) and orders coflows by their fractional
    LP completion time; rates then follow weighted-SEBF over that order.
    Guarantee: deterministic ``67/3``-approximation with release times
    (SPAA'15).  Empirically the gap versus the LP lower bound is a small
    constant -- run ``ccf tournament`` to measure it.
    """

    name = "lpcct"

    def _compute_ranks(
        self, ctx: SchedulingContext, cids: list[int]
    ) -> dict[int, int]:
        loads = _remaining_load_matrix(ctx, cids)
        weights = np.array(
            [ctx.progress[c].weight for c in cids], dtype=float
        )
        rates = np.concatenate(
            (ctx.fabric.egress_rates, ctx.fabric.ingress_rates)
        )
        live = rates[rates > 0]
        if live.size == 0:
            # Every port is down (chaos): no ordering matters; keep the
            # deterministic ascending-cid order until capacity returns.
            return {cid: slot for slot, cid in enumerate(cids)}
        # Dead ports would make the LP infeasible; model them as nearly
        # stalled instead so coflows pinned on them sort last.
        rates = np.where(rates > 0, rates, float(live.max()) * 1e-9)
        sol = interval_indexed_lp(
            loads, weights, np.zeros(len(cids)), rates, charge="order"
        )
        # Ties in fractional completion time (coflows sharing an LP
        # interval) break toward the heavier coflow, then the lower id.
        order = sorted(
            range(len(cids)),
            key=lambda i: (sol.completion_times[i], -weights[i], cids[i]),
        )
        return {cids[i]: slot for slot, i in enumerate(order)}
