"""Worst-case strictly sequential schedule (CCF paper, Fig. 2(a)).

The paper motivates coflow scheduling by showing that an uncoordinated
schedule -- nodes transmitting one flow at a time, e.g. "all nodes first
send their data to the first node, then to the second node, and so on" --
serializes transfers and wastes bandwidth.  This discipline models the
pathological extreme: exactly one flow is active at any instant, in
(arrival, coflow, flow) order.  On the paper's toy plan SP2 it yields
CCT = 6 time units versus 4 for the optimal coflow schedule.
"""

from __future__ import annotations

import numpy as np

from repro.network.events import SchedulingContext
from repro.network.schedulers.base import CoflowScheduler

__all__ = ["SequentialScheduler"]


class SequentialScheduler(CoflowScheduler):
    """Serve exactly one flow at full line rate, strictly in order."""

    name = "sequential"
    clairvoyant = False

    def allocate(self, ctx: SchedulingContext) -> np.ndarray:
        rates = np.zeros(ctx.n_flows)
        if ctx.n_flows == 0:
            return rates
        # Deterministic order: (coflow arrival, coflow id, src, dst).
        g = ctx.groups
        arrivals = g.expand(
            np.array(
                [ctx.progress[int(c)].arrival_time for c in g.unique_cids]
            )
        )
        order = np.lexsort((ctx.dsts, ctx.srcs, ctx.coflow_ids, arrivals))
        head = int(order[0])
        rates[head] = min(
            ctx.fabric.egress_rates[ctx.srcs[head]],
            ctx.fabric.ingress_rates[ctx.dsts[head]],
        )
        return rates

    def rates_valid_until(
        self, ctx: SchedulingContext, rates: np.ndarray
    ) -> float:
        # The head flow is picked by (arrival, coflow, src, dst) -- all
        # static for a fixed active set -- and served at the line rate of
        # its ports, so the allocation holds until the set or fabric moves.
        return np.inf
