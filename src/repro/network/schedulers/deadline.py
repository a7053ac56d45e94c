"""Varys' deadline mode: admission control + just-in-time rates.

Varys (§5.3 of the SIGCOMM'14 paper) supports coflows with completion
deadlines: a coflow is *admitted* only if giving every remaining flow the
minimum rate that meets the deadline keeps all ports within capacity,
accounting for the guarantees already handed to admitted coflows.
Admitted coflows receive exactly those minimum rates (finishing exactly
at their deadlines unless backfill speeds them up); rejected and
deadline-less coflows share the leftover bandwidth max-min fairly as
best-effort traffic.

The admission decision is made once, at the first epoch a coflow is seen
(its arrival), and is sticky -- matching Varys, where clients are told at
submission whether the deadline is guaranteed.  A guarantee assumes the
fabric keeps its capacity: when a port fails or slows under an admitted
coflow so that its just-in-time demand no longer fits, the coflow's
rates shrink uniformly to the largest share that does (it misses the
deadline; a dead port leaves it at zero until the port returns).
"""

from __future__ import annotations

import numpy as np

from repro.network.events import SchedulingContext
from repro.network.schedulers.base import CoflowScheduler, maxmin_fill_fast

__all__ = ["DeadlineScheduler"]


class DeadlineScheduler(CoflowScheduler):
    """Deadline-guaranteeing scheduler with best-effort backfill.

    Parameters
    ----------
    backfill:
        When True (default) leftover capacity is shared among *all*
        unfinished flows, letting admitted coflows beat their deadlines.
        When False, admitted coflows stick to their just-in-time rates
        (finishing exactly at the deadline); best-effort traffic always
        receives the leftover max-min fairly -- the fabric stays
        work-conserving either way.
    """

    name = "deadline"

    def __init__(self, *, backfill: bool = True) -> None:
        self.backfill = backfill
        self._admitted: dict[int, bool] = {}

    def reset(self) -> None:
        self._admitted.clear()

    def admitted(self, coflow_id: int) -> bool | None:
        """Admission verdict for a coflow (None = not seen / no deadline)."""
        return self._admitted.get(coflow_id)

    def allocate(self, ctx: SchedulingContext) -> np.ndarray:
        # Residual capacities live in one combined egress+ingress vector:
        # each coflow's reservation is one bincount over its cells.
        rates = np.zeros(ctx.n_flows)
        n = ctx.fabric.n_ports
        dsts_off = ctx.dsts + n
        res = np.concatenate(
            (ctx.fabric.egress_rates, ctx.fabric.ingress_rates)
        )
        two_n = res.shape[0]

        deadline_ids = [
            c
            for c in ctx.active_coflow_ids()
            if ctx.progress[c].deadline is not None
        ]
        deadline_ids.sort(key=lambda c: (ctx.progress[c].arrival_time, c))

        reserved: set[int] = set()
        for cid in deadline_ids:
            prog = ctx.progress[cid]
            idx = ctx.flows_of(cid)
            time_left = prog.absolute_deadline - ctx.time
            if cid not in self._admitted:
                self._admitted[cid] = self._admissible(
                    ctx, dsts_off, idx, time_left, res
                )
            if not self._admitted[cid]:
                continue  # best-effort via backfill
            if time_left <= 0:
                # Past its deadline (float dust, or time lost to a failed
                # port): served as best-effort traffic.
                continue
            reserved.add(cid)
            need = ctx.remaining[idx] / time_left
            cells = np.concatenate((ctx.srcs[idx], dsts_off[idx]))
            load = np.bincount(
                cells, weights=np.concatenate((need, need)), minlength=two_n
            )
            if not (load <= res * (1 + 1e-9)).all():
                # A port failed or slowed under the admitted coflow, so
                # its deadline is lost: scale its demand down to the
                # largest uniform share that fits (zero on a dead port).
                busy = load > 0
                with np.errstate(divide="ignore"):
                    need = need / (load[busy] / res[busy]).max()
                load = np.bincount(
                    cells, weights=np.concatenate((need, need)),
                    minlength=two_n,
                )
            rates[idx] += need
            res -= load
            np.maximum(res, 0.0, out=res)

        if self.backfill:
            maxmin_fill_fast(ctx.srcs, dsts_off, res, rates=rates)
        else:
            # Work conservation for non-guaranteed traffic only.
            g = ctx.groups
            guaranteed = g.expand(
                np.array([int(c) in reserved for c in g.unique_cids])
            )
            besteffort = np.flatnonzero(~guaranteed)
            # Only reserved coflows were allocated above, so the
            # best-effort flows' rates are still zero.
            maxmin_fill_fast(
                ctx.srcs, dsts_off, res,
                subset=besteffort, rates=rates, zero_rates=True,
            )
        return rates

    @staticmethod
    def _admissible(
        ctx: SchedulingContext,
        dsts_off: np.ndarray,
        idx: np.ndarray,
        time_left: float,
        res: np.ndarray,
    ) -> bool:
        """Can the coflow's minimum-rate demand fit in the residual caps?

        One bincount over the combined egress+ingress cells carries the
        per-port loads, compared elementwise against ``res``.
        """
        if time_left <= 0:
            return False
        need = ctx.remaining[idx] / time_left
        load = np.bincount(
            np.concatenate((ctx.srcs[idx], dsts_off[idx])),
            weights=np.concatenate((need, need)),
            minlength=res.shape[0],
        )
        return bool((load <= res * (1 + 1e-9)).all())

    def next_event_hint(self, ctx: SchedulingContext, rates: np.ndarray):
        """Re-plan at the nearest admitted deadline (rates change there)."""
        best = None
        for cid in ctx.active_coflow_ids():
            dl = ctx.progress[cid].absolute_deadline
            if dl is None or not self._admitted.get(cid, False):
                continue
            dt = dl - ctx.time
            if dt > 0 and (best is None or dt < best):
                best = dt
        return best
