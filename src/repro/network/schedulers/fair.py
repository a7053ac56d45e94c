"""Per-flow max-min fair sharing (the coflow-agnostic baseline).

Models TCP-like behaviour: every flow independently competes for bandwidth
and the fabric converges to the max-min fair allocation.  Coflow
boundaries are ignored entirely, which is exactly why coflow-aware
disciplines (Varys, Aalo) can beat it on CCT.
"""

from __future__ import annotations

import numpy as np

from repro.network.events import SchedulingContext
from repro.network.schedulers.base import CoflowScheduler, maxmin_fill_fast

__all__ = ["FairSharingScheduler"]


class FairSharingScheduler(CoflowScheduler):
    """(Weighted) max-min fairness across all active flows.

    Parameters
    ----------
    use_weights:
        When True (default), each flow's fair share is scaled by its
        coflow's ``weight`` -- weighted max-min, modelling per-job
        bandwidth priorities.  All weights default to 1, recovering
        plain max-min.
    """

    name = "fair"
    clairvoyant = False

    def __init__(self, *, use_weights: bool = True) -> None:
        self.use_weights = use_weights

    def allocate(self, ctx: SchedulingContext) -> np.ndarray:
        weights = None
        if self.use_weights and ctx.n_flows:
            # One progress lookup per coflow, broadcast to the flow axis.
            g = ctx.groups
            weights = g.expand(
                np.array([ctx.progress[int(c)].weight for c in g.unique_cids])
            )
            if np.all(weights == 1.0):
                weights = None
        res = np.concatenate(
            (ctx.fabric.egress_rates, ctx.fabric.ingress_rates)
        )
        return maxmin_fill_fast(
            ctx.srcs, ctx.dsts + ctx.fabric.n_ports, res, weights=weights
        )

    def rates_valid_until(
        self, ctx: SchedulingContext, rates: np.ndarray
    ) -> float:
        # The allocation reads only flow endpoints, fabric capacities and
        # static per-coflow weights -- none of which change while the
        # active set and fabric are fixed, so it never expires on its own.
        return np.inf
