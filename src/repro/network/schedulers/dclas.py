"""Aalo's D-CLAS: Discretized Coflow-aware Least-Attained Service.

Aalo (Chowdhury & Stoica, SIGCOMM'15) schedules coflows *without prior
knowledge* of flow sizes.  Each coflow is placed in one of K logical
priority queues according to how many bytes it has **already sent**; queue
thresholds grow geometrically (default: first threshold 10 MB, factor 10).
Small coflows therefore finish in high-priority queues while heavy coflows
gradually sink -- approximating least-attained-service.  Within a queue
coflows are served FIFO; within a coflow, flows share bandwidth max-min
fairly (Aalo has no size information, so MADD is unavailable).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.checks import at_least, in_range, positive
from repro.network.events import SchedulingContext
from repro.network.schedulers.base import CoflowScheduler, maxmin_fill_fast

__all__ = ["DCLASScheduler"]


class DCLASScheduler(CoflowScheduler):
    """Non-clairvoyant priority-queue scheduler (Aalo).

    Parameters
    ----------
    first_threshold:
        Upper sent-bytes bound of the highest-priority queue (default
        10 MB, Aalo's E = 10 MiB rounded).
    multiplier:
        Geometric growth factor between queue thresholds (default 10).
    num_queues:
        Number of discrete queues K (default 10); the lowest queue is
        unbounded.
    queue_weight_decay:
        Aalo shares bandwidth across non-empty queues in a weighted
        fashion rather than by strict priority, so heavy coflows are not
        starved.  Queue ``q`` gets weight ``queue_weight_decay ** q``;
        the default 0 reproduces strict priority (weight only on the
        highest non-empty queue), while Aalo's paper uses ~0.1 ("E/K"
        style decay).
    """

    name = "dclas"
    clairvoyant = False

    def __init__(
        self,
        *,
        first_threshold: float = 10e6,
        multiplier: float = 10.0,
        num_queues: int = 10,
        queue_weight_decay: float = 0.0,
    ) -> None:
        positive("first_threshold", first_threshold)
        in_range("multiplier", multiplier, 1, math.inf, "()")
        at_least("num_queues", num_queues, 1)
        in_range("queue_weight_decay", queue_weight_decay, 0, 1, "[)")
        self.first_threshold = float(first_threshold)
        self.multiplier = float(multiplier)
        self.num_queues = int(num_queues)
        self.queue_weight_decay = float(queue_weight_decay)
        # Queue boundaries are fixed for the scheduler's lifetime; the
        # hint below consults them every epoch.
        self._thresholds = self.first_threshold * (
            self.multiplier ** np.arange(self.num_queues - 1)
        )

    def queue_of(self, sent_bytes: float) -> int:
        """Queue index (0 = highest priority) for a coflow's attained service."""
        if sent_bytes < self.first_threshold:
            return 0
        q = 1 + int(
            math.floor(
                math.log(sent_bytes / self.first_threshold, self.multiplier)
            )
        )
        return min(q, self.num_queues - 1)

    def allocate(self, ctx: SchedulingContext) -> np.ndarray:
        rates = np.zeros(ctx.n_flows)
        order = sorted(
            ctx.active_coflow_ids(),
            key=lambda c: (
                self.queue_of(ctx.progress[c].sent_bytes),
                ctx.progress[c].arrival_time,
                c,
            ),
        )
        dsts_off = ctx.dsts + ctx.fabric.n_ports
        res = np.concatenate(
            (ctx.fabric.egress_rates, ctx.fabric.ingress_rates)
        )
        if self.queue_weight_decay > 0:
            self._reserve_weighted_shares(ctx, order, dsts_off, res, rates)
            zero = False  # reservations already wrote these flows' rates
        else:
            zero = True  # each subset is written exactly once, from zero
        for cid in order:
            maxmin_fill_fast(
                ctx.srcs, dsts_off, res,
                subset=ctx.flows_of(cid), rates=rates, zero_rates=zero,
            )
        return rates

    def _reserve_weighted_shares(
        self,
        ctx: SchedulingContext,
        order: list[int],
        dsts_off: np.ndarray,
        res: np.ndarray,
        rates: np.ndarray,
    ) -> None:
        """Give lower queues a guaranteed slice before the priority pass.

        Non-empty queues get capacity shares proportional to
        ``decay ** q`` on every port of the combined egress/ingress
        residual ``res``; each queue distributes its slice max-min among
        its coflows' flows.  The subsequent FIFO pass then consumes
        whatever the reservations left, preserving work conservation.
        """
        queues: dict[int, list[int]] = {}
        for cid in order:
            q = self.queue_of(ctx.progress[cid].sent_bytes)
            queues.setdefault(q, []).append(cid)
        if len(queues) <= 1:
            return
        weights = {q: self.queue_weight_decay ** q for q in queues}
        total = sum(weights.values())
        # Slices are fractions of the capacity available *before* any
        # reservation; computing them against the shrinking residual
        # would compound the shares and starve low queues anyway.
        base = res.copy()
        for q, cids in sorted(queues.items()):
            frac = weights[q] / total
            # A private slice of the fabric for this queue (capped by
            # whatever is actually still free).
            slice_res = np.minimum(base * frac, res)
            before = slice_res.copy()
            idx = np.concatenate([ctx.flows_of(c) for c in cids])
            # Queues are disjoint, so each flow's rate is still zero when
            # its queue's slice is filled.
            maxmin_fill_fast(
                ctx.srcs, dsts_off, slice_res,
                subset=idx, rates=rates, zero_rates=True,
            )
            res -= before - slice_res
            np.maximum(res, 0.0, out=res)

    # D-CLAS deliberately does NOT override ``rates_valid_until``: queue
    # membership advances with attained service, and the hint below
    # ignores thresholds within a guard band above ``sent`` (the
    # ``(1 + 1e-12)`` / ``1e-9`` terms), so a coflow parked just under a
    # threshold is demoted one epoch *after* crossing it, at whatever
    # boundary the simulator hits next.  A validity horizon computed at
    # allocation time cannot reproduce that data-dependent lag, so
    # reusing rates would diverge from the epoch loop bit-for-bit.

    def next_event_hint(self, ctx: SchedulingContext, rates: np.ndarray):
        """Time until some coflow's attained service crosses a threshold.

        Queue membership depends on bytes sent, which grows *during* an
        epoch; without this hint the simulator would hold priorities fixed
        until the next completion and miss demotions.
        """
        thresholds = self._thresholds
        best: float | None = None
        flow_rates = ctx.coflow_rate_sums(rates)
        for cid, flow_rate in zip(ctx.active_coflow_ids(), flow_rates):
            if flow_rate <= 0:
                continue
            sent = ctx.progress[cid].sent_bytes
            ahead = thresholds[thresholds > sent * (1 + 1e-12) + 1e-9]
            if ahead.size == 0:
                continue
            dt = (float(ahead[0]) - sent) / flow_rate
            if best is None or dt < best:
                best = dt
        return best
