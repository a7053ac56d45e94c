"""Online co-optimization: planning against in-flight shuffles.

The paper assumes every flow of an operator starts together, and notes
(§II-B, footnote 1) that the framework "can be extended to online ...
cases very easily" because it is built on the coflow abstraction.  This
module performs that extension: a sequence of operators arrives over
time, and each new operator is planned with Algorithm 1 against *initial
port loads* equal to the residual bytes of the shuffles still in flight.

The residual model assumes the data plane runs each coflow with MADD
(all flows of a coflow finish together at its bottleneck time ``T``), so
a port loaded with ``L`` bytes at submission drains linearly and carries
``L * max(0, 1 - (t - t0) / T)`` residual bytes at time ``t``.  This is
exactly the schedule the paper's bandwidth-based model prescribes, and it
keeps the online planner closed-form.

Fault tolerance and degraded estimates
--------------------------------------
The online path inherits the job-level fault-tolerance machinery:

* construct with ``stage_policy=`` and report failures through
  :meth:`OnlineCCF.node_failed` / :meth:`OnlineCCF.node_recovered`.
  In-flight shuffles touching the dead node are failed, parked until the
  node recovers, or **replanned** (their outstanding receive bytes move
  to the least-loaded survivor, chosen with Algorithm 1's step rule via
  :class:`~repro.core.incremental.IncrementalPlanner`) according to the
  policy; new submissions avoid dead nodes entirely
  (:func:`~repro.core.replan.replan_assignment`).
* construct with ``noise=`` (a :class:`~repro.core.noise.NoisyEstimates`
  or a bare sigma) and every submission's assignment is computed from a
  perturbed/censored view of its chunk matrix while all book-keeping --
  residuals, durations, reported metrics -- charges the true bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.checks import positive
from repro.core.framework import CCF, ShuffleWorkload
from repro.core.incremental import IncrementalPlanner
from repro.core.model import ShuffleModel
from repro.core.noise import NoisyEstimates
from repro.core.plan import ExecutionPlan
from repro.core.replan import replan_assignment

__all__ = ["OnlineCCF", "InFlightShuffle", "OnlineEvent"]


@dataclass
class InFlightShuffle:
    """Book-keeping for a previously submitted shuffle."""

    submit_time: float
    duration: float  # bandwidth-optimal CCT in seconds
    send_loads: np.ndarray
    recv_loads: np.ndarray

    def residual(self, now: float) -> tuple[np.ndarray, np.ndarray]:
        """(send, recv) bytes still outstanding at time ``now``."""
        if self.duration <= 0:
            frac = 0.0
        else:
            frac = max(0.0, 1.0 - (now - self.submit_time) / self.duration)
        return self.send_loads * frac, self.recv_loads * frac

    def finished(self, now: float) -> bool:
        return now >= self.submit_time + self.duration

    @property
    def implied_rate(self) -> float:
        """Port rate the (bottleneck, duration) pair implies."""
        if self.duration <= 0:
            return 0.0
        bottleneck = max(
            self.send_loads.max(initial=0.0), self.recv_loads.max(initial=0.0)
        )
        return bottleneck / self.duration


@dataclass(frozen=True)
class OnlineEvent:
    """Structured record of one online failure/recovery action.

    ``kind`` is one of ``node_failed``, ``node_recovered``,
    ``shuffle_failed``, ``shuffle_parked``, ``shuffle_replanned`` or
    ``shuffle_restarted``.
    """

    time: float
    kind: str
    node: int = -1
    bytes_affected: float = 0.0
    detail: str = ""


class OnlineCCF:
    """CCF front-end that tracks fabric occupancy across submissions.

    Parameters
    ----------
    n_nodes:
        Fabric size; all submitted workloads must match it.
    ccf:
        The underlying (offline) framework used for each plan.
    stage_policy:
        Optional job-level fault-tolerance policy (name or instance from
        :mod:`repro.analytics.stagepolicy`) governing what happens to
        in-flight shuffles when :meth:`node_failed` is reported.
    noise:
        Optional :class:`NoisyEstimates` (or bare sigma) degrading the
        planner's view of every submission's chunk sizes.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.online import OnlineCCF
    >>> from repro.core.model import ShuffleModel
    >>> online = OnlineCCF(n_nodes=3)
    >>> m = ShuffleModel(h=np.array([[4., 4.], [4., 4.], [0., 0.]]), rate=1.0)
    >>> plan = online.submit(m, time=0.0)     # plans against an idle fabric
    >>> len(online.in_flight(0.0))            # its shuffle is now in flight
    1
    """

    def __init__(
        self,
        n_nodes: int,
        *,
        ccf: CCF | None = None,
        stage_policy: "object | str | None" = None,
        noise: NoisyEstimates | float | None = None,
    ) -> None:
        self.n_nodes = positive("n_nodes", n_nodes)
        self.ccf = ccf or CCF()
        if stage_policy is not None:
            # Lazy import: stage policies live in the analytics layer,
            # which imports repro.core at module load.
            from repro.analytics.stagepolicy import make_stage_policy

            stage_policy = make_stage_policy(stage_policy)
        self.stage_policy = stage_policy
        if isinstance(noise, (int, float)):
            noise = NoisyEstimates(sigma=float(noise))
        if noise is not None and noise.is_null:
            noise = None
        self.noise = noise
        self._history: list[InFlightShuffle] = []
        self._parked: list[InFlightShuffle] = []
        self._dead: set[int] = set()
        self._last_time = 0.0
        self._submissions = 0
        self.events: list[OnlineEvent] = []
        #: Shuffles pruned from ``_history`` after draining (see
        #: :meth:`_advance`); with the count, ``len(_history) +
        #: drained_shuffles`` still totals every submission, so service
        #: loops can assert bounded memory without losing accounting.
        self.drained_shuffles = 0

    @property
    def dead_nodes(self) -> set[int]:
        """Nodes currently reported failed."""
        return set(self._dead)

    def in_flight(self, now: float) -> list[InFlightShuffle]:
        """Shuffles not yet drained at time ``now``."""
        return [s for s in self._history if not s.finished(now)]

    def residual_loads(self, now: float) -> tuple[np.ndarray, np.ndarray]:
        """Aggregate outstanding (send, recv) bytes per port at ``now``."""
        send = np.zeros(self.n_nodes)
        recv = np.zeros(self.n_nodes)
        for s in self.in_flight(now):
            ds, dr = s.residual(now)
            send += ds
            recv += dr
        return send, recv

    def _occupied_model(self, model: ShuffleModel, now: float) -> ShuffleModel:
        """Fold the residual port loads into the model.

        Residuals are per-port totals with no pairwise structure, so they
        enter as the model's ``extra_send`` / ``extra_recv`` vectors --
        tightening constraints (3.1)/(3.2) exactly, without polluting the
        operator's own volume matrix.
        """
        send, recv = self.residual_loads(now)
        if not send.any() and not recv.any():
            return model
        return ShuffleModel(
            h=model.h,
            v0=model.v0,
            rate=model.rate,
            local_bytes_pre=model.local_bytes_pre,
            name=model.name,
            extra_send=model.extra_send + send,
            extra_recv=model.extra_recv + recv,
        )

    #: Prune ``_history`` once it holds this many entries (amortized:
    #: the scan is O(len) but runs at most once per threshold growth).
    _PRUNE_THRESHOLD = 256

    def _advance(self, time: float) -> None:
        if time < self._last_time:
            raise ValueError(
                f"submissions must be time-ordered: {time} < {self._last_time}"
            )
        self._last_time = time
        # Drained shuffles contribute zero residual forever (time is
        # monotone, residual fraction hits 0 and stays there), so they
        # can be dropped without changing any future plan.  Without the
        # prune an open-loop service run holding one OnlineCCF for
        # thousands of submissions grows _history without bound.
        if len(self._history) >= self._PRUNE_THRESHOLD:
            alive = [s for s in self._history if not s.finished(time)]
            self.drained_shuffles += len(self._history) - len(alive)
            self._history = alive

    def submit(
        self,
        workload: ShuffleWorkload | ShuffleModel,
        *,
        time: float,
        strategy: str = "ccf",
    ) -> ExecutionPlan:
        """Plan a new operator at ``time`` against the occupied fabric.

        Returns a plan computed on the *occupied* model (its metrics count
        the in-flight bytes as initial flows); the plan's assignment is
        applied to the operator's own traffic.  Submissions must be in
        non-decreasing time order.  With dead nodes reported, the
        assignment is re-routed so no partition lands on a dead node;
        with ``noise`` configured, the assignment is computed from the
        degraded view of the chunk sizes.
        """
        self._advance(time)

        base = self.ccf.model_for(workload, strategy)
        if base.n != self.n_nodes:
            raise ValueError(
                f"workload spans {base.n} nodes, fabric has {self.n_nodes}"
            )
        occupied = self._occupied_model(base, time)
        if self.noise is None:
            plan = self.ccf.plan(occupied, strategy)
        else:
            plan_model = self.noise.reseeded(self._submissions).perturb_model(
                occupied
            )
            dest = self.ccf.assign(plan_model, strategy)
            plan = ExecutionPlan(model=occupied, dest=dest, strategy=strategy)
        self._submissions += 1

        if self._dead and occupied.p > 0:
            allowed = np.ones(self.n_nodes, dtype=bool)
            allowed[list(self._dead)] = False
            if not allowed.any():
                raise ValueError("every node is dead; nothing can be planned")
            dest = replan_assignment(occupied, plan.dest, allowed)
            plan = ExecutionPlan(
                model=occupied,
                dest=dest,
                strategy=strategy,
                solve_seconds=plan.solve_seconds,
            )

        # Record this shuffle's own loads (without the synthetic residuals)
        # for future submissions.
        own = base.evaluate(plan.dest)
        duration = own.bottleneck_bytes / base.rate
        self._history.append(
            InFlightShuffle(
                submit_time=time,
                duration=duration,
                send_loads=own.send_loads,
                recv_loads=own.recv_loads,
            )
        )
        return plan

    def node_failed(
        self, time: float, node: int, *, direction: str = "both"
    ) -> list[OnlineEvent]:
        """Report a node failure; apply the stage policy to in-flight work.

        ``direction`` mirrors :meth:`FabricDynamics.fail`: ``"both"`` is
        a full node loss, ``"ingress"`` a receiver-side loss (the node's
        resident data remains readable -- the replannable case),
        ``"egress"`` a sender-side loss.  Per the configured policy,
        every in-flight shuffle with residual bytes on the dead
        direction(s):

        * ``fail-job`` -- is dropped (its transfer failed);
        * ``retry-stage`` -- is parked and restarted from scratch when
          :meth:`node_recovered` reports the node back;
        * ``replan-stage`` -- keeps running: its outstanding receive
          bytes on the dead node move to the least-loaded surviving
          node (Algorithm 1's step rule); when the dead node holds the
          shuffle's *source* bytes (``egress``/``both`` loss) there is
          nothing to replan and the shuffle is parked as under
          ``retry-stage``.

        Returns the events recorded for this failure.
        """
        if self.stage_policy is None:
            raise ValueError(
                "OnlineCCF was constructed without a stage_policy; pass "
                "stage_policy='fail-job'|'retry-stage'|'replan-stage' to "
                "handle node failures"
            )
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range [0, {self.n_nodes})")
        if direction not in ("both", "ingress", "egress"):
            raise ValueError(
                f"direction must be 'both', 'ingress' or 'egress', "
                f"got {direction!r}"
            )
        self._advance(time)
        from repro.analytics.stagepolicy import (
            FailJobPolicy,
            ReplanStagePolicy,
        )

        new_events = [OnlineEvent(time=time, kind="node_failed", node=node)]
        self._dead.add(node)
        survivors = np.ones(self.n_nodes, dtype=bool)
        survivors[list(self._dead)] = False

        send_dead = direction in ("both", "egress")
        recv_dead = direction in ("both", "ingress")
        for s in list(self.in_flight(time)):
            send_res, recv_res = s.residual(time)
            affected = (send_dead and send_res[node] > 0) or (
                recv_dead and recv_res[node] > 0
            )
            if not affected:
                continue  # shuffle does not touch the dead direction(s)
            self._history.remove(s)
            if isinstance(self.stage_policy, FailJobPolicy):
                new_events.append(
                    OnlineEvent(
                        time=time,
                        kind="shuffle_failed",
                        node=node,
                        bytes_affected=float(send_res.sum() + recv_res.sum()),
                        detail="in-flight shuffle dropped (fail-job)",
                    )
                )
                continue
            replannable = (
                isinstance(self.stage_policy, ReplanStagePolicy)
                and not (send_dead and send_res[node] > 0)
                and survivors.any()
            )
            if not replannable:
                # Park until the node recovers; restart from scratch then
                # (stage-granularity recovery re-runs the whole transfer).
                self._parked.append(s)
                new_events.append(
                    OnlineEvent(
                        time=time,
                        kind="shuffle_parked",
                        node=node,
                        bytes_affected=float(send_res.sum() + recv_res.sum()),
                        detail="waiting for node recovery",
                    )
                )
                continue
            # Replan: the dead node's outstanding receive bytes move to
            # the surviving node Algorithm 1's step rule picks, given
            # everyone else's residuals; senders re-aim, so send residuals
            # are unchanged.
            lost = float(recv_res[node])
            recv_new = recv_res.copy()
            recv_new[node] = 0.0
            other_send, other_recv = self.residual_loads(time)
            planner = IncrementalPlanner(
                n_nodes=self.n_nodes,
                initial_send=other_send + send_res,
                initial_recv=other_recv + recv_new,
                allowed=survivors,
            )
            target = planner.assign(np.zeros(self.n_nodes))
            recv_new[target] += lost
            rate = s.implied_rate
            bottleneck = max(
                send_res.max(initial=0.0), recv_new.max(initial=0.0)
            )
            self._history.append(
                InFlightShuffle(
                    submit_time=time,
                    duration=bottleneck / rate if rate > 0 else 0.0,
                    send_loads=send_res,
                    recv_loads=recv_new,
                )
            )
            new_events.append(
                OnlineEvent(
                    time=time,
                    kind="shuffle_replanned",
                    node=node,
                    bytes_affected=lost,
                    detail=f"recv bytes moved to node {target}",
                )
            )
        self.events.extend(new_events)
        return new_events

    def node_recovered(self, time: float, node: int) -> list[OnlineEvent]:
        """Report a node repair; restart parked shuffles that can run."""
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range [0, {self.n_nodes})")
        self._advance(time)
        self._dead.discard(node)
        new_events = [OnlineEvent(time=time, kind="node_recovered", node=node)]
        still_parked: list[InFlightShuffle] = []
        for s in self._parked:
            touches_dead = any(
                s.send_loads[d] > 0 or s.recv_loads[d] > 0 for d in self._dead
            )
            if touches_dead:
                still_parked.append(s)
                continue
            self._history.append(
                InFlightShuffle(
                    submit_time=time,
                    duration=s.duration,
                    send_loads=s.send_loads,
                    recv_loads=s.recv_loads,
                )
            )
            new_events.append(
                OnlineEvent(
                    time=time,
                    kind="shuffle_restarted",
                    node=node,
                    bytes_affected=float(
                        s.send_loads.sum() + s.recv_loads.sum()
                    ),
                    detail="parked shuffle restarted from scratch",
                )
            )
        self._parked = still_parked
        self.events.extend(new_events)
        return new_events

    def reset(self) -> None:
        """Forget all in-flight state."""
        self._history.clear()
        self._parked.clear()
        self._dead.clear()
        self.events.clear()
        self._last_time = 0.0
        self._submissions = 0
        self.drained_shuffles = 0
