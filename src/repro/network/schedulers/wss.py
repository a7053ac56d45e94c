"""Orchestra's Weighted Shuffle Scheduling (WSS; Chowdhury et al., SIGCOMM'11).

The historical predecessor of coflow scheduling: *within* a shuffle,
allocate each flow a rate proportional to its size, so large flows get
more bandwidth and the whole shuffle finishes sooner than under unweighted
fair sharing.  Orchestra showed up to 1.5x speedups from this alone.

Across coflows WSS has no inter-coflow policy; like per-flow fairness we
process coflows in arrival order against residual capacity, so WSS here
is "FIFO between coflows, size-weighted max-min within a coflow" -- the
natural fluid-model rendering of the original.
"""

from __future__ import annotations

import numpy as np

from repro.network.events import SchedulingContext
from repro.network.schedulers.base import CoflowScheduler, maxmin_fill_fast

__all__ = ["WSSScheduler"]


class WSSScheduler(CoflowScheduler):
    """Size-weighted sharing within each coflow, FIFO across coflows."""

    name = "wss"

    def allocate(self, ctx: SchedulingContext) -> np.ndarray:
        rates = np.zeros(ctx.n_flows)
        order = sorted(
            ctx.active_coflow_ids(),
            key=lambda c: (ctx.progress[c].arrival_time, c),
        )
        # Proportional shares scaled to the tightest port constraint
        # (alpha-scaling: rate_f = alpha * w_f with alpha maximal), one
        # bincount/divide/min per coflow over the combined egress+ingress
        # residual vector.
        dsts_off = ctx.dsts + ctx.fabric.n_ports
        res = np.concatenate(
            (ctx.fabric.egress_rates, ctx.fabric.ingress_rates)
        )
        two_n = res.shape[0]
        share = np.empty(two_n)
        for cid in order:
            idx = ctx.flows_of(cid)
            weights = ctx.remaining[idx]
            total = weights.sum()
            if total <= 0:
                continue
            port = np.concatenate((ctx.srcs[idx], dsts_off[idx]))
            load = np.bincount(
                port, weights=np.concatenate((weights, weights)),
                minlength=two_n,
            )
            busy = load > 0
            share.fill(np.inf)
            np.divide(res, load, out=share, where=busy)
            alpha = share.min()
            if not np.isfinite(alpha) or alpha <= 0:
                continue
            alloc = alpha * weights
            rates[idx] += alloc
            res -= np.bincount(
                port, weights=np.concatenate((alloc, alloc)),
                minlength=two_n,
            )
            np.maximum(res, 0.0, out=res)
        # Work conservation: spread any leftover bandwidth.
        maxmin_fill_fast(ctx.srcs, dsts_off, res, rates=rates)
        return rates
