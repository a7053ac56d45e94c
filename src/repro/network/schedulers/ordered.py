"""Ordered clairvoyant coflow schedulers: FIFO, SCF, NCF.

All three share the same machinery: sort active coflows by a priority key,
give each coflow in turn a MADD allocation against the residual port
capacities, then (optionally) backfill leftover bandwidth across all flows
with a max-min pass so the fabric stays work-conserving.  They differ only
in the ordering key -- exactly how CoflowSim organizes them.
"""

from __future__ import annotations

import numpy as np

from repro.network.events import SchedulingContext
from repro.network.schedulers.base import (
    CoflowScheduler,
    madd_rates_fast,
    maxmin_fill_fast,
)

__all__ = ["OrderedCoflowScheduler", "FIFOScheduler", "SCFScheduler", "NCFScheduler"]


class OrderedCoflowScheduler(CoflowScheduler):
    """Template: priority ordering + per-coflow MADD + optional backfill.

    Parameters
    ----------
    backfill:
        When True (default), residual capacity left by the priority pass is
        redistributed max-min fairly over all active flows, keeping every
        port busy whenever it has pending traffic (work conservation, as in
        Varys' implementation).
    """

    name = "ordered"

    def __init__(self, *, backfill: bool = True) -> None:
        self.backfill = backfill

    def priority_key(self, ctx: SchedulingContext, coflow_id: int) -> tuple:
        """Sort key; lower sorts first.  Subclasses override."""
        raise NotImplementedError

    def priority_keys(self, ctx: SchedulingContext) -> dict[int, tuple]:
        """Priority key of every active coflow, computed in one pass.

        The default falls back to per-coflow :meth:`priority_key` calls;
        subclasses whose key reduces to a bulk aggregate (remaining
        volume, bottleneck, width) override it so the sort setup costs
        one vectorized sweep instead of ``O(n_flows)`` per coflow.  The
        bulk aggregates are bit-identical to their scalar counterparts,
        so the resulting order -- and allocation -- never changes.
        """
        return {c: self.priority_key(ctx, c) for c in ctx.active_coflow_ids()}

    def coflow_order(self, ctx: SchedulingContext) -> list[int]:
        """Active coflow ids in service order: lowest key first, ties
        by id.  A lone coflow is its own order, so it skips the keys."""
        cids = ctx.active_coflow_ids()
        if len(cids) < 2:
            return cids
        keys = self.priority_keys(ctx)
        return sorted(keys, key=lambda c: (*keys[c], c))

    def allocate(self, ctx: SchedulingContext) -> np.ndarray:
        rates = np.zeros(ctx.n_flows)
        order = self.coflow_order(ctx)
        dsts_off = ctx.dsts + ctx.fabric.n_ports
        res = np.concatenate(
            (ctx.fabric.egress_rates, ctx.fabric.ingress_rates)
        )
        # MADD gives nothing to a coflow that touches a saturated cell;
        # every active flow carries load, so that is MADD's own blocked
        # test, and a blocked MADD changes neither ``rates`` nor ``res``.
        # The mask only moves when a MADD serves its coflow.
        sat = res <= 1e-9
        for cid in order:
            idx = ctx.flows_of(cid)
            if np.count_nonzero(sat[ctx.srcs[idx]]) or np.count_nonzero(
                sat[dsts_off[idx]]
            ):
                continue
            madd_rates_fast(
                ctx.srcs, dsts_off, ctx.remaining, res, idx, rates,
            )
            np.less_equal(res, 1e-9, out=sat)
        if self.backfill:
            maxmin_fill_fast(ctx.srcs, dsts_off, res, rates=rates)
        return rates


class FIFOScheduler(OrderedCoflowScheduler):
    """First-In-First-Out: coflows served strictly in arrival order."""

    name = "fifo"

    def priority_key(self, ctx: SchedulingContext, coflow_id: int) -> tuple:
        return (ctx.progress[coflow_id].arrival_time,)


class SCFScheduler(OrderedCoflowScheduler):
    """Shortest-Coflow-First: fewest remaining bytes first (SJF analogue)."""

    name = "scf"

    def priority_key(self, ctx: SchedulingContext, coflow_id: int) -> tuple:
        return (ctx.remaining_volume(coflow_id),)

    def priority_keys(self, ctx: SchedulingContext) -> dict[int, tuple]:
        cids = ctx.active_coflow_ids()
        return {c: (v,) for c, v in zip(cids, ctx.remaining_volumes())}


class NCFScheduler(OrderedCoflowScheduler):
    """Narrowest-Coflow-First: fewest concurrent flows first."""

    name = "ncf"

    def priority_key(self, ctx: SchedulingContext, coflow_id: int) -> tuple:
        return (int(ctx.flows_of(coflow_id).size),)

    def priority_keys(self, ctx: SchedulingContext) -> dict[int, tuple]:
        g = ctx.groups
        return {int(c): (int(n),) for c, n in zip(g.unique_cids, g.counts)}
