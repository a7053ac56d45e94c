"""Flow-recovery policies for port failures during simulation.

The dynamics layer (:mod:`repro.network.dynamics`) can kill a port
mid-run by driving its rate to zero.  Any active flow whose source can no
longer send or whose destination can no longer receive is *stranded*; the
simulator hands every stranded flow to a pluggable
:class:`RecoveryPolicy`, which answers with one of three actions:

``abort``
    Give up on the whole coflow.  The coflow is removed from the run and
    reported in ``SimulationResult.failed_coflows``; its already-delivered
    bytes are counted as lost work.
``retry``
    Park the flow until its ports are back, then restart it.  A
    configurable *lost-progress fraction* of the bytes already delivered
    must be re-sent (a dead receiver loses everything it buffered:
    fraction 1; an interrupted sender with durable receiver state loses
    nothing: fraction 0), and repeated failures of the same flow back off
    exponentially before restarting.
``replan``
    Re-run the paper's co-optimization for the lost chunks: data destined
    to a dead node is reassigned to the surviving nodes through
    :class:`repro.core.incremental.IncrementalPlanner` (Algorithm 1's
    step rule, restricted to live destinations and seeded with the
    current outstanding port loads), and the affected flows are
    regenerated mid-run toward their new destinations.  Flows whose
    *source* died cannot be replanned -- the data lives on the dead node
    -- so they fall back to retry semantics.

The :class:`RecoveryManager` owns the mechanics shared by all policies:
stranding detection, the suspended-flow pool, resume scheduling, and the
structured per-event failure log surfaced on ``SimulationResult``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from typing import TYPE_CHECKING

import numpy as np

from repro.core.checks import in_range, non_negative
from repro.network.fabric import Fabric

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.incremental import IncrementalPlanner

__all__ = [
    "ActiveFlows",
    "FailureRecord",
    "FabricView",
    "StrandedFlow",
    "Abort",
    "Suspend",
    "Reroute",
    "RecoveryPolicy",
    "AbortPolicy",
    "RetryPolicy",
    "ReplanPolicy",
    "RecoveryManager",
    "make_recovery_policy",
    "RECOVERY_POLICIES",
]


@dataclass
class ActiveFlows:
    """Flat parallel arrays describing the simulator's active flows.

    ``volume0`` is each flow's volume at its latest (re)start and
    ``attempts`` counts how many times it has been stranded -- both are
    only consulted by the recovery layer, but the simulator maintains
    them unconditionally so recovery can engage at any failure event.

    ``version`` increments on every structural change (append / keep) so
    callers can cache per-coflow groupings and other flow-aligned state
    across epochs and rebuild only when the flow set actually changes.

    ``view_factor`` is an optional flow-aligned column of noise factors
    on the scheduler's view of remaining volumes.  It stays ``None``
    unless the owning simulator activates it; once active it rides along
    through every append / keep, with NaN marking rows whose factor has
    not been drawn yet (appends from the recovery layer cannot know the
    noise model, so they leave NaN for the simulator to fill lazily).
    """

    srcs: np.ndarray
    dsts: np.ndarray
    remaining: np.ndarray
    volume0: np.ndarray
    attempts: np.ndarray
    cids: np.ndarray
    version: int = 0
    view_factor: np.ndarray | None = None

    @classmethod
    def empty(cls) -> "ActiveFlows":
        return cls(
            srcs=np.empty(0, dtype=np.int64),
            dsts=np.empty(0, dtype=np.int64),
            remaining=np.empty(0),
            volume0=np.empty(0),
            attempts=np.empty(0, dtype=np.int64),
            cids=np.empty(0, dtype=np.int64),
        )

    @property
    def size(self) -> int:
        return int(self.srcs.shape[0])

    def append(
        self,
        srcs: np.ndarray,
        dsts: np.ndarray,
        remaining: np.ndarray,
        volume0: np.ndarray,
        attempts: np.ndarray,
        cids: np.ndarray,
        view_factor: np.ndarray | None = None,
    ) -> None:
        self.srcs = np.concatenate([self.srcs, srcs]).astype(np.int64)
        self.dsts = np.concatenate([self.dsts, dsts]).astype(np.int64)
        self.remaining = np.concatenate([self.remaining, remaining])
        self.volume0 = np.concatenate([self.volume0, volume0])
        self.attempts = np.concatenate([self.attempts, attempts]).astype(np.int64)
        self.cids = np.concatenate([self.cids, cids]).astype(np.int64)
        if self.view_factor is not None:
            if view_factor is None:
                view_factor = np.full(np.shape(srcs)[0], np.nan)
            self.view_factor = np.concatenate(
                [self.view_factor, np.asarray(view_factor, dtype=float)]
            )
        self.version += 1

    def keep(self, mask: np.ndarray) -> None:
        """Drop every flow where ``mask`` is False."""
        self.srcs = self.srcs[mask]
        self.dsts = self.dsts[mask]
        self.remaining = self.remaining[mask]
        self.volume0 = self.volume0[mask]
        self.attempts = self.attempts[mask]
        self.cids = self.cids[mask]
        if self.view_factor is not None:
            self.view_factor = self.view_factor[mask]
        self.version += 1


@dataclass(frozen=True)
class FailureRecord:
    """One structured entry of the failure log.

    ``kind`` is one of ``port_failed``, ``port_recovered``, ``abort``,
    ``suspend``, ``reroute``, ``local_delivery``, ``resume`` or
    ``unrecoverable``.  Flow-level kinds aggregate per coflow per event
    time; ``bytes_lost`` is the volume that must be re-transmitted (or,
    for aborts, the useful work thrown away).
    """

    time: float
    kind: str
    port: int = -1
    coflow_id: int = -1
    flows: int = 0
    bytes_lost: float = 0.0
    detail: str = ""


@dataclass(frozen=True)
class StrandedFlow:
    """A flow pinned to a dead port, as presented to a policy."""

    src: int
    dst: int
    remaining: float
    volume0: float
    coflow_id: int
    attempts: int
    src_dead: bool
    dst_dead: bool

    @property
    def progress(self) -> float:
        """Bytes already delivered before the failure."""
        return max(self.volume0 - self.remaining, 0.0)


@dataclass(frozen=True)
class FabricView:
    """Snapshot handed to policies when a batch of flows strands."""

    time: float
    egress_alive: np.ndarray
    ingress_alive: np.ndarray
    send_load: np.ndarray
    recv_load: np.ndarray

    @property
    def alive(self) -> np.ndarray:
        return self.egress_alive & self.ingress_alive


# -- policy actions ------------------------------------------------------
@dataclass(frozen=True)
class Abort:
    """Fail the stranded flow's whole coflow."""


@dataclass(frozen=True)
class Suspend:
    """Park the flow; restart with ``restart_remaining`` bytes once its
    ports are alive and ``resume_after`` (absolute time) has passed."""

    resume_after: float
    restart_remaining: float
    bytes_lost: float


@dataclass(frozen=True)
class Reroute:
    """Regenerate the flow toward ``new_dst`` with ``volume`` bytes.
    ``new_dst == src`` means the chunk stays local (delivered at once)."""

    new_dst: int
    volume: float
    bytes_lost: float


RecoveryAction = Abort | Suspend | Reroute


class RecoveryPolicy(ABC):
    """Strategy deciding what happens to each stranded flow."""

    #: Registry name; overridden by subclasses.
    name: str = "base"

    def reset(self) -> None:
        """Clear cross-run state (called once per simulation run)."""

    def begin_batch(self, view: FabricView) -> None:
        """Hook invoked once per stranding event, before any decide()."""

    @abstractmethod
    def decide(self, flow: StrandedFlow, view: FabricView) -> RecoveryAction:
        """Return the action for one stranded flow."""

    def decide_batch(
        self, flows: list[StrandedFlow], view: FabricView
    ) -> list[RecoveryAction]:
        """Actions for all flows stranded by one event, aligned by index.

        Default: decide each flow independently.  Policies that must see
        the whole batch (replan keeps each lost chunk together) override
        this.
        """
        return [self.decide(f, view) for f in flows]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class AbortPolicy(RecoveryPolicy):
    """Fail fast: any stranded flow kills its coflow."""

    name = "abort"

    def decide(self, flow: StrandedFlow, view: FabricView) -> RecoveryAction:
        return Abort()


class RetryPolicy(RecoveryPolicy):
    """Wait for the port to come back, then restart the flow.

    Parameters
    ----------
    lost_progress_fraction:
        Share of the flow's already-delivered bytes that must be re-sent
        on restart.  1.0 (default) models a receiver that lost all
        buffered state; 0.0 resumes exactly where the transfer stopped.
    backoff_base:
        Base delay (seconds) before restarting after the n-th stranding
        of the same flow: ``backoff_base * 2**(n-1)``.  0 (default)
        restarts the instant the port recovers.
    """

    name = "retry"

    def __init__(
        self,
        *,
        lost_progress_fraction: float = 1.0,
        backoff_base: float = 0.0,
    ) -> None:
        in_range("lost_progress_fraction", lost_progress_fraction, 0, 1)
        non_negative("backoff_base", backoff_base)
        self.lost_progress_fraction = lost_progress_fraction
        self.backoff_base = backoff_base

    def suspend(self, flow: StrandedFlow, now: float) -> Suspend:
        lost = self.lost_progress_fraction * flow.progress
        delay = self.backoff_base * (2.0 ** flow.attempts)
        return Suspend(
            resume_after=now + delay,
            restart_remaining=flow.remaining + lost,
            bytes_lost=lost,
        )

    def decide(self, flow: StrandedFlow, view: FabricView) -> RecoveryAction:
        return self.suspend(flow, view.time)


class ReplanPolicy(RetryPolicy):
    """Re-run Algorithm 1 for chunks whose destination died.

    Destination-dead flows are reassigned to surviving nodes through an
    :class:`IncrementalPlanner` seeded with the current outstanding port
    loads and restricted (via its ``allowed`` mask) to fully-alive
    destinations, so consecutive reassignments spread across survivors
    exactly as the paper's greedy spreads partitions.  The full chunk is
    re-sent: whatever the dead receiver had buffered is gone.

    Source-dead flows (data resident on the failed node) and batches with
    no surviving destination fall back to the inherited retry semantics.
    """

    name = "replan"

    def __init__(
        self,
        *,
        lost_progress_fraction: float = 1.0,
        backoff_base: float = 0.0,
        locality_tiebreak: bool = True,
    ) -> None:
        super().__init__(
            lost_progress_fraction=lost_progress_fraction,
            backoff_base=backoff_base,
        )
        self.locality_tiebreak = locality_tiebreak
        self._planner: "IncrementalPlanner | None" = None

    def reset(self) -> None:
        self._planner = None

    def begin_batch(self, view: FabricView) -> None:
        # Imported here: repro.core depends on repro.network at module
        # load, so the network layer must not import core eagerly.
        from repro.core.incremental import IncrementalPlanner

        alive = view.alive
        if not alive.any():
            self._planner = None
            return
        self._planner = IncrementalPlanner(
            n_nodes=alive.shape[0],
            initial_send=np.where(alive, view.send_load, 0.0),
            initial_recv=np.where(alive, view.recv_load, 0.0),
            locality_tiebreak=self.locality_tiebreak,
            allowed=alive,
        )

    def decide(self, flow: StrandedFlow, view: FabricView) -> RecoveryAction:
        actions = self.decide_batch([flow], view)
        return actions[0]

    def decide_batch(
        self, flows: list[StrandedFlow], view: FabricView
    ) -> list[RecoveryAction]:
        """Reassign each lost chunk -- as one unit -- to a survivor.

        All stranded flows feeding the same dead destination within one
        coflow carry pieces of the same partition, which must stay
        co-located for downstream operators.  They form one chunk column
        of Algorithm 1's h-matrix (``col[src] = bytes resident on src``)
        and are assigned together to a single new destination.
        """
        actions: dict[int, RecoveryAction] = {}
        chunks: dict[tuple[int, int], list[int]] = {}
        for i, f in enumerate(flows):
            if f.src_dead or self._planner is None:
                actions[i] = self.suspend(f, view.time)
            else:
                chunks.setdefault((f.coflow_id, f.dst), []).append(i)
        for (_, _), members in sorted(chunks.items()):
            col = np.zeros(self._planner.n)
            for i in members:
                col[flows[i].src] += flows[i].volume0
            new_dst = self._planner.assign(col)
            for i in members:
                actions[i] = Reroute(
                    new_dst=new_dst,
                    volume=flows[i].volume0,
                    bytes_lost=flows[i].progress,
                )
        return [actions[i] for i in range(len(flows))]


@dataclass
class _Suspended:
    """One parked flow waiting for its ports to come back."""

    src: int
    dst: int
    remaining: float
    volume0: float
    attempts: int
    coflow_id: int
    resume_after: float


class RecoveryManager:
    """Mechanics shared by all recovery policies.

    Owned by one ``CoflowSimulator.run`` invocation: detects stranded
    flows after every fabric change, routes them through the policy,
    keeps the suspended pool, and accumulates the failure log.
    """

    def __init__(self, policy: RecoveryPolicy, n_ports: int) -> None:
        self.policy = policy
        self.n_ports = n_ports
        self.records: list[FailureRecord] = []
        self.failed_coflows: dict[int, float] = {}
        self._suspended: list[_Suspended] = []
        self._was_alive_e = np.ones(n_ports, dtype=bool)
        self._was_alive_i = np.ones(n_ports, dtype=bool)
        policy.reset()

    # -- state queries ---------------------------------------------------
    @property
    def has_suspended(self) -> bool:
        return bool(self._suspended)

    def suspended_coflow_ids(self) -> set[int]:
        """Ids of coflows with at least one parked flow."""
        return {s.coflow_id for s in self._suspended}

    def any_dead(self, fabric: Fabric) -> bool:
        return not (fabric.egress_alive().all() and fabric.ingress_alive().all())

    def next_wakeup(self, fabric: Fabric, now: float) -> float | None:
        """Earliest future resume time among suspended flows whose ports
        are already alive (port recoveries are dynamics events and bound
        the epoch separately)."""
        alive_e = fabric.egress_alive()
        alive_i = fabric.ingress_alive()
        times = [
            s.resume_after
            for s in self._suspended
            if s.resume_after > now + 1e-15
            and alive_e[s.src]
            and alive_i[s.dst]
        ]
        return min(times) if times else None

    # -- the per-epoch step ---------------------------------------------
    def step(
        self,
        fabric: Fabric,
        now: float,
        flows: ActiveFlows,
        progress: dict,
    ) -> tuple[list[int], list[int]]:
        """Record port transitions, resume due flows, strand dead ones.

        Returns ``(aborted_coflow_ids, candidates)`` where ``candidates``
        are coflows that may have just completed through local delivery
        (the caller must check they have no remaining flows).
        """
        alive_e = fabric.egress_alive()
        alive_i = fabric.ingress_alive()
        self._log_port_transitions(now, alive_e, alive_i)

        self._resume_due(now, alive_e, alive_i, flows)

        stranded = ~alive_e[flows.srcs] | ~alive_i[flows.dsts]
        aborted: list[int] = []
        local: list[int] = []
        if stranded.any():
            aborted, local = self._handle_stranded(
                fabric, now, flows, progress, stranded, alive_e, alive_i
            )
        return aborted, local

    def _log_port_transitions(
        self, now: float, alive_e: np.ndarray, alive_i: np.ndarray
    ) -> None:
        died = (self._was_alive_e & ~alive_e) | (self._was_alive_i & ~alive_i)
        recovered = (
            (~self._was_alive_e | ~self._was_alive_i) & alive_e & alive_i
        )
        for p in np.flatnonzero(died):
            self.records.append(
                FailureRecord(time=now, kind="port_failed", port=int(p))
            )
        for p in np.flatnonzero(recovered):
            self.records.append(
                FailureRecord(time=now, kind="port_recovered", port=int(p))
            )
        self._was_alive_e = alive_e.copy()
        self._was_alive_i = alive_i.copy()

    def _resume_due(
        self,
        now: float,
        alive_e: np.ndarray,
        alive_i: np.ndarray,
        flows: ActiveFlows,
    ) -> None:
        due = [
            s
            for s in self._suspended
            if s.resume_after <= now + 1e-15
            and alive_e[s.src]
            and alive_i[s.dst]
            and s.coflow_id not in self.failed_coflows
        ]
        if not due:
            return
        due_ids = {id(s) for s in due}
        self._suspended = [s for s in self._suspended if id(s) not in due_ids]
        flows.append(
            srcs=np.array([s.src for s in due]),
            dsts=np.array([s.dst for s in due]),
            remaining=np.array([s.remaining for s in due]),
            volume0=np.array([s.remaining for s in due]),
            attempts=np.array([s.attempts for s in due]),
            cids=np.array([s.coflow_id for s in due]),
        )
        by_cid: dict[int, int] = {}
        for s in due:
            by_cid[s.coflow_id] = by_cid.get(s.coflow_id, 0) + 1
        for cid, n in sorted(by_cid.items()):
            self.records.append(
                FailureRecord(
                    time=now, kind="resume", coflow_id=cid, flows=n
                )
            )

    def _handle_stranded(
        self,
        fabric: Fabric,
        now: float,
        flows: ActiveFlows,
        progress: dict,
        stranded: np.ndarray,
        alive_e: np.ndarray,
        alive_i: np.ndarray,
    ) -> tuple[list[int], list[int]]:
        n = self.n_ports
        live = ~stranded
        view = FabricView(
            time=now,
            egress_alive=alive_e,
            ingress_alive=alive_i,
            send_load=np.bincount(
                flows.srcs[live], weights=flows.remaining[live], minlength=n
            ),
            recv_load=np.bincount(
                flows.dsts[live], weights=flows.remaining[live], minlength=n
            ),
        )
        self.policy.begin_batch(view)

        keep = np.ones(flows.size, dtype=bool)
        aborted: list[int] = []
        new_flows: list[tuple[int, int, float, float, int, int]] = []
        agg: dict[tuple[int, str], list[float]] = {}

        batch: list[StrandedFlow] = []
        for i in np.flatnonzero(stranded):
            cid = int(flows.cids[i])
            keep[i] = False
            if cid in self.failed_coflows:
                continue
            batch.append(
                StrandedFlow(
                    src=int(flows.srcs[i]),
                    dst=int(flows.dsts[i]),
                    remaining=float(flows.remaining[i]),
                    volume0=float(flows.volume0[i]),
                    coflow_id=cid,
                    attempts=int(flows.attempts[i]),
                    src_dead=not alive_e[flows.srcs[i]],
                    dst_dead=not alive_i[flows.dsts[i]],
                )
            )
        actions = self.policy.decide_batch(batch, view)
        if len(actions) != len(batch):  # pragma: no cover - defensive
            raise ValueError(
                f"recovery policy returned {len(actions)} actions "
                f"for {len(batch)} stranded flows"
            )

        for sf, action in zip(batch, actions):
            cid = sf.coflow_id
            if cid in self.failed_coflows:
                continue
            if isinstance(action, Abort):
                self.failed_coflows[cid] = now
                aborted.append(cid)
                wasted = float(progress[cid].sent_bytes)
                self.records.append(
                    FailureRecord(
                        time=now,
                        kind="abort",
                        coflow_id=cid,
                        flows=1,
                        bytes_lost=wasted,
                        detail=f"stranded flow {sf.src}->{sf.dst}",
                    )
                )
            elif isinstance(action, Suspend):
                self._suspended.append(
                    _Suspended(
                        src=sf.src,
                        dst=sf.dst,
                        remaining=action.restart_remaining,
                        volume0=sf.volume0,
                        attempts=sf.attempts + 1,
                        coflow_id=cid,
                        resume_after=action.resume_after,
                    )
                )
                key = (cid, "suspend")
                agg.setdefault(key, [0.0, 0.0])
                agg[key][0] += 1
                agg[key][1] += action.bytes_lost
            else:  # Reroute
                if action.new_dst == sf.src:
                    key = (cid, "local_delivery")
                else:
                    new_flows.append(
                        (sf.src, action.new_dst, action.volume,
                         action.volume, sf.attempts + 1, cid)
                    )
                    key = (cid, "reroute")
                agg.setdefault(key, [0.0, 0.0])
                agg[key][0] += 1
                agg[key][1] += action.bytes_lost

        # An aborted coflow takes all of its flows down, active and parked.
        if aborted:
            failed = set(aborted)
            keep &= ~np.isin(flows.cids, list(failed))
            self._suspended = [
                s for s in self._suspended if s.coflow_id not in failed
            ]
            new_flows = [f for f in new_flows if f[5] not in failed]

        flows.keep(keep)
        if new_flows:
            flows.append(
                srcs=np.array([f[0] for f in new_flows]),
                dsts=np.array([f[1] for f in new_flows]),
                remaining=np.array([f[2] for f in new_flows], dtype=float),
                volume0=np.array([f[3] for f in new_flows], dtype=float),
                attempts=np.array([f[4] for f in new_flows]),
                cids=np.array([f[5] for f in new_flows]),
            )
        for (cid, kind), (n_f, lost) in sorted(agg.items()):
            self.records.append(
                FailureRecord(
                    time=now,
                    kind=kind,
                    coflow_id=cid,
                    flows=int(n_f),
                    bytes_lost=float(lost),
                )
            )
        local = sorted({cid for (cid, kind) in agg if kind == "local_delivery"})
        return aborted, local

    def abort_unrecoverable(self, now: float) -> list[int]:
        """Fail every coflow still parked with no way to ever resume."""
        aborted = sorted({s.coflow_id for s in self._suspended})
        for cid in aborted:
            flows = [s for s in self._suspended if s.coflow_id == cid]
            self.failed_coflows[cid] = now
            self.records.append(
                FailureRecord(
                    time=now,
                    kind="unrecoverable",
                    coflow_id=cid,
                    flows=len(flows),
                    bytes_lost=float(sum(s.remaining for s in flows)),
                    detail="suspended flows can never resume "
                    "(no recovery event scheduled)",
                )
            )
        self._suspended = []
        return aborted


#: Registry of policy names -> zero-config constructors.
RECOVERY_POLICIES: dict[str, type[RecoveryPolicy]] = {
    "abort": AbortPolicy,
    "retry": RetryPolicy,
    "replan": ReplanPolicy,
}


def make_recovery_policy(name: str, **kwargs) -> RecoveryPolicy:
    """Instantiate a recovery policy by registry name."""
    try:
        cls = RECOVERY_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown recovery policy {name!r}; "
            f"choose from {sorted(RECOVERY_POLICIES)}"
        ) from None
    return cls(**kwargs)
