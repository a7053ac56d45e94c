"""Event-driven flow-level (fluid) coflow simulator.

Substitute for CoflowSim, the measurement back-end of Varys, Aalo and the
CCF paper.  The simulator advances in *epochs*: at each epoch the active
scheduling discipline assigns a rate to every active flow; the epoch lasts
until the next flow completion or coflow arrival; volumes are then drained
fluidly at the assigned rates.  Because at least one flow finishes (or one
coflow arrives) per epoch, a run takes at most ``n_flows + n_coflows``
epochs, each costing one scheduler invocation.

The simulator validates every allocation against the fabric's port
capacities, so an infeasible scheduler fails loudly rather than silently
producing optimistic CCTs.

Fault tolerance: when the attached :class:`FabricDynamics` schedule kills
a port (rate zero), flows pinned to it are detected and handed to the
run's :class:`~repro.network.recovery.RecoveryPolicy` (abort / retry /
replan) instead of deadlocking; every failure and recovery action is
recorded in the structured failure log on :class:`SimulationResult`.

Watchdogs: the epoch loop supervises *itself*.  Three independent
tripwires -- an epoch budget (``max_epochs``), an optional wall-clock
budget (``wall_clock_budget_s``) and a no-progress stall detector
(``stall_epochs`` consecutive epochs without the simulation clock
advancing) -- abort a pathological run with a structured error from
:mod:`repro.core.resilience` (:class:`BudgetExceeded` /
:class:`StallError`, both ``RuntimeError`` subclasses) carrying a crash
report (repro header, active coflows, last observed events) instead of
spinning forever.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> network)
    from repro.core.noise import NoisyEstimates

from repro.network.dynamics import FabricDynamics
from repro.network.events import CoflowProgress, FlowGroups, SchedulingContext
from repro.network.fabric import Fabric
from repro.network.flow import Coflow
from repro.network.recovery import (
    ActiveFlows,
    FailureRecord,
    RecoveryManager,
    RecoveryPolicy,
    make_recovery_policy,
)
from repro.network.schedulers.base import CoflowScheduler
from repro.obs.instrument import Instrumentation, MultiInstrumentation

__all__ = [
    "ArrivalSource",
    "CoflowSimulator",
    "SimulationResult",
    "Epoch",
    "DEFAULT_STALL_EPOCHS",
]

#: Remaining volume below which a flow is considered finished (bytes).
_VOLUME_EPS = 1e-6

#: Default bound on consecutive epochs without simulation-clock progress.
#: Legitimate zero-duration epochs each consume a discrete event (an
#: admission, a dynamics change, a recovery wakeup) and therefore come in
#: short bursts; thousands in a row mean the loop is spinning on a
#: scheduler/dynamics interaction that will never terminate.
DEFAULT_STALL_EPOCHS = 10_000

#: Floor on the scheduler-reported remaining volume under estimate noise:
#: censored flows report "size unknown" as this near-zero value, and a
#: strictly positive view keeps every discipline's allocation well-defined.
_ESTIMATE_FLOOR = 1e-6


class ArrivalSource:
    """Open-loop coflow feed polled by the epoch loop (service mode).

    Unlike the batch path (all coflows known up front) or the
    ``injector`` callback (fired on completions), a source is consulted
    at the top of *every* epoch, which lets an admission controller
    release, defer and shed arrivals against live simulator state.
    Implementations must be deterministic given their seed: the epoch
    loop calls the two methods in a fixed order and never concurrently.

    Subclassing this base is optional -- any object with the same two
    methods works (structural typing); the base exists for
    documentation and as a default no-op implementation.
    """

    def next_time(self, now: float) -> float | None:
        """Earliest future time the source may release a coflow.

        Bounds the epoch length so the loop never overshoots an
        arrival.  None means the source is exhausted -- the run may end
        once in-flight work drains.
        """
        return None

    def take(self, now: float, slack: float) -> list[Coflow]:
        """Coflows released at or before ``now`` (+ ``slack`` ULP grace).

        Called once per epoch before the pending drain.  Released
        coflows may carry an ``arrival_time`` earlier than ``now``
        (a deferred admission); the CCT keeps charging that wait.
        """
        return []


def _arrival_slack(t: float) -> float:
    """Admission tolerance at simulation time ``t``.

    The epoch clock accumulates ``t += dt`` rounding error, so a coflow
    arriving exactly at an epoch boundary can find ``t`` a few ULP short
    of its arrival time.  A fixed absolute epsilon (the old ``1e-15``)
    falls below one ULP once ``t`` exceeds ~4.5 -- at large simulated
    times (arrivals of 1e9 and beyond) boundary arrivals were admitted an
    epoch late.  The slack therefore scales with the float spacing at
    ``t`` while keeping the absolute floor for times near zero.
    ``math.ulp(t)`` is ``np.spacing(abs(t))`` without the numpy call
    (they differ only at the largest double, where ``t + slack``
    overflows to inf either way).
    """
    return max(1e-15, 4.0 * math.ulp(t))


@dataclass
class Epoch:
    """One simulator step: constant rates over ``[start, start + duration)``."""

    start: float
    duration: float
    active_flows: int
    aggregate_rate: float


class _TimelineCollector(Instrumentation):
    """Builds ``SimulationResult.epochs`` from the ``epoch`` events.

    The ``record_timeline=True`` path is just one more consumer of the
    instrumentation stream: the simulator attaches this collector
    (alongside any user-supplied sink) instead of maintaining a bespoke
    parallel timeline.  Every other event kind is ignored.

    ``limit`` bounds memory for long-running (service-mode) runs: only
    the most recent ``limit`` epochs are kept in a ring buffer.  The
    default (None) keeps every epoch, unchanged for batch runs.
    """

    enabled = True

    def __init__(self, limit: int | None = None) -> None:
        if limit is not None and limit <= 0:
            raise ValueError(f"timeline limit must be positive, got {limit}")
        self._limit = limit
        self.dropped = 0
        self.epochs: "deque[Epoch] | list[Epoch]" = (
            deque(maxlen=limit) if limit is not None else []
        )

    def emit(self, kind, t, **fields):
        if kind != "epoch":
            return
        if self._limit is not None and len(self.epochs) == self._limit:
            self.dropped += 1
        self.epochs.append(
            Epoch(
                start=t,
                duration=fields["dur"],
                active_flows=fields["flows"],
                aggregate_rate=fields["rate"],
            )
        )


@dataclass
class SimulationResult:
    """Outcome of a simulation run.

    Attributes
    ----------
    completion_times:
        Absolute finish time of each *completed* coflow, keyed by id.
    ccts:
        Coflow completion times (finish - arrival), keyed by coflow id.
    makespan:
        Finish time of the last completed coflow.
    total_bytes:
        Total input volume of all admitted coflows (re-transmissions after
        failures are not double-counted here; see ``bytes_lost``).
    epochs:
        Per-epoch trace.  **Silently empty unless a timeline was
        requested**: construct the simulator with
        ``record_timeline=True`` (the ``ccf simulate`` flag is
        ``--timeline``) or attach an instrumentation sink that records
        epoch samples.  An empty list therefore means "not recorded",
        not "zero epochs" -- ``n_epochs`` is always populated.
    failures:
        Structured failure log: port failures/recoveries and every
        recovery action taken (aborts, suspends, reroutes, resumes) with
        the bytes each one lost.  Empty on failure-free runs.
    failed_coflows:
        Coflows that never completed because the recovery policy aborted
        them (or they were unrecoverable), mapped to the abort time.
        These carry no CCT and are excluded from ``average_cct``.
    n_epochs:
        Number of epoch-loop iterations the run executed.  Unlike
        ``epochs`` it is always recorded (no timeline memory cost) --
        the hot-path benchmark divides it by wall time for epochs/sec.
    """

    completion_times: dict[int, float]
    ccts: dict[int, float]
    makespan: float
    total_bytes: float
    epochs: list[Epoch] = field(default_factory=list)
    failures: list[FailureRecord] = field(default_factory=list)
    failed_coflows: dict[int, float] = field(default_factory=dict)
    n_epochs: int = 0
    epochs_dropped: int = 0

    @property
    def average_cct(self) -> float:
        """Mean CCT across completed coflows -- the headline metric."""
        if not self.ccts:
            return 0.0
        return float(np.mean(list(self.ccts.values())))

    @property
    def max_cct(self) -> float:
        """Worst CCT across coflows."""
        if not self.ccts:
            return 0.0
        return float(max(self.ccts.values()))

    def cct_of(self, coflow_id: int) -> float:
        """CCT of one coflow by id."""
        return self.ccts[coflow_id]

    @property
    def timeline_truncated(self) -> bool:
        """True when ``epochs`` is a partial (ring-buffered) timeline.

        A ``timeline_limit`` ring buffer drops the oldest samples once
        full; ``epochs_dropped`` counts them.  Statistics derived from
        ``epochs`` -- busy time, mean epoch duration, the Gantt time
        axis -- describe only the retained window then.  (``n_epochs``
        cannot stand in for this check: it also counts idle fast-forward
        iterations that never emit a timeline sample, so it exceeds
        ``len(epochs)`` even on untruncated runs.)
        """
        return self.epochs_dropped > 0

    @property
    def bytes_lost(self) -> float:
        """Total bytes lost to failures (re-sent or abandoned)."""
        return float(sum(r.bytes_lost for r in self.failures))

    @property
    def n_port_failures(self) -> int:
        """Number of port-failure events observed during the run."""
        return sum(1 for r in self.failures if r.kind == "port_failed")

    def failure_summary(self) -> dict[str, float]:
        """Aggregate failure/recovery counters for experiment tables."""
        kinds = [r.kind for r in self.failures]
        return {
            "port_failures": kinds.count("port_failed"),
            "reroutes": sum(
                r.flows for r in self.failures if r.kind == "reroute"
            ),
            "restarts": sum(
                r.flows for r in self.failures if r.kind == "resume"
            ),
            "aborted_coflows": len(self.failed_coflows),
            "bytes_lost": self.bytes_lost,
        }


class CoflowSimulator:
    """Fluid-flow simulator for a set of coflows on a non-blocking fabric.

    Parameters
    ----------
    fabric:
        The switch model (ports and rates).
    scheduler:
        Inter-coflow scheduling discipline deciding per-epoch rates.
    record_timeline:
        When True, keep an :class:`Epoch` trace on
        ``SimulationResult.epochs`` (memory grows with epochs).  When
        False (the default) ``epochs`` stays empty -- only ``n_epochs``
        counts the iterations.
    timeline_limit:
        With ``record_timeline=True``, keep only the most recent this
        many epochs (ring buffer) so long-running service-mode runs have
        bounded timeline memory.  None (the default) keeps every epoch.
    dynamics:
        Optional schedule of mid-run port-rate changes (and failures).
    recovery:
        Recovery policy (or registry name ``"abort"`` / ``"retry"`` /
        ``"replan"``) applied to flows stranded by port failures.
        Required whenever ``dynamics`` contains failure events.
    estimate_noise:
        Optional :class:`repro.core.noise.NoisyEstimates` degrading the
        *scheduler's view* of remaining flow volumes (seeded per-flow
        multiplicative noise; censored flows report a near-zero size).
        The fluid drain always charges the true bytes, so this measures
        how much schedule quality a discipline loses to inaccurate flow
        information -- non-clairvoyant disciplines (D-CLAS) are immune by
        construction.
    batch_events:
        When True (default) the epoch loop runs event-horizon batching:
        after each allocation the scheduler reports how long the rate
        array stays valid (:meth:`CoflowScheduler.rates_valid_until`),
        and epochs that change neither the active flow set, the fabric,
        nor the recovery state *reuse* the cached array instead of
        re-invoking the scheduler.  Epoch boundaries are unchanged --
        the loop still stops at every completion, arrival, source poll,
        scheduler hint and fabric event, so results (including
        ``n_epochs``) are bit-identical to ``batch_events=False``;
        only the redundant recomputation is skipped.  The win shows on
        service-mode runs where admission-deferral polls slice the
        timeline into many epochs with an unchanged fleet.  Pass False
        to force a fresh allocation every epoch (the escape hatch, and
        the ``ccf bench`` reference for the large-fleet cases).
    instrumentation:
        Optional :class:`repro.obs.Instrumentation` sink whose ``emit``
        receives the run's event stream: coflow lifecycle transitions
        (submit -> admit -> first-byte -> complete/abort), per-epoch
        samples and every failure-log record.  The epoch sample fields
        (active coflows, queue depth, residual bytes and, when the sink
        wants port samples, per-port busy fractions) are computed only
        when the sink asks for flow events or port samples.  Defaults to
        off; with no sink attached the epoch loop pays one boolean test
        per emission site and results are bit-identical to an
        uninstrumented run (pinned by property tests and the bench
        gate).  Control-plane feedback does not travel on this stream:
        a caller that must react to completions or aborts passes
        ``injector`` / ``on_abort`` to :meth:`run`.
    wall_clock_budget_s:
        Optional hard bound on the run's *wall-clock* time.  When the
        epoch loop is still running after this many real seconds it
        aborts with :class:`repro.core.resilience.BudgetExceeded`
        carrying a crash report.  None (the default) disables the check
        entirely -- the hot path pays nothing.
    stall_epochs:
        No-progress watchdog: abort with
        :class:`repro.core.resilience.StallError` after this many
        *consecutive* epochs in which the simulation clock did not
        advance.  Such epochs legitimately occur in short bursts (each
        consumes a discrete event); an unbounded streak is the
        signature of an infinite spin.  Defaults to
        :data:`DEFAULT_STALL_EPOCHS`; pass None or 0 to disable.

    Examples
    --------
    >>> from repro.network import Fabric, Coflow, Flow, CoflowSimulator
    >>> from repro.network.schedulers import make_scheduler
    >>> fab = Fabric(n_ports=3, rate=1.0)
    >>> cf = Coflow([Flow(0, 1, 3.0), Flow(2, 1, 1.0)])
    >>> sim = CoflowSimulator(fab, make_scheduler("sebf"))
    >>> res = sim.run([cf])
    >>> res.makespan  # port 1 must ingest 4 bytes at rate 1
    4.0
    """

    def __init__(
        self,
        fabric: Fabric,
        scheduler: CoflowScheduler,
        *,
        record_timeline: bool = False,
        max_epochs: int = 10_000_000,
        dynamics: "FabricDynamics | None" = None,
        recovery: "RecoveryPolicy | str | None" = None,
        estimate_noise: "NoisyEstimates | None" = None,
        batch_events: bool = True,
        instrumentation: "Instrumentation | None" = None,
        wall_clock_budget_s: float | None = None,
        stall_epochs: int | None = DEFAULT_STALL_EPOCHS,
        timeline_limit: int | None = None,
    ) -> None:
        if wall_clock_budget_s is not None and wall_clock_budget_s <= 0:
            raise ValueError(
                f"wall_clock_budget_s must be strictly positive or None, "
                f"got {wall_clock_budget_s}"
            )
        if stall_epochs is not None and stall_epochs < 0:
            raise ValueError(
                f"stall_epochs must be >= 0 or None, got {stall_epochs}"
            )
        self.fabric = fabric
        self.scheduler = scheduler
        self.record_timeline = record_timeline
        self.timeline_limit = timeline_limit
        self.max_epochs = max_epochs
        self.wall_clock_budget_s = wall_clock_budget_s
        self.stall_epochs = stall_epochs or 0
        self.dynamics = dynamics
        self.batch_events = batch_events
        self.instrumentation = (
            instrumentation
            if instrumentation is not None and instrumentation.enabled
            else None
        )
        self.estimate_noise = (
            None
            if estimate_noise is None or estimate_noise.is_null
            else estimate_noise
        )
        if isinstance(recovery, str):
            recovery = make_recovery_policy(recovery)
        self.recovery = recovery
        if dynamics is not None:
            dynamics.validate_against(fabric)
            if dynamics.has_failures and recovery is None:
                raise ValueError(
                    "dynamics schedule contains port-failure events "
                    "(rate 0); pass recovery='abort'|'retry'|'replan' "
                    "(or a RecoveryPolicy) so stranded flows are handled"
                )

    def run(
        self,
        coflows: Sequence[Coflow] | Iterable[Coflow],
        *,
        injector: "Callable[[int, float], list[Coflow]] | None" = None,
        on_abort: "Callable[[int, float], list[Coflow]] | None" = None,
        source: "ArrivalSource | None" = None,
    ) -> SimulationResult:
        """Simulate the given coflows to completion and return the result.

        Parameters
        ----------
        coflows:
            Initially known coflows.  May be empty when a ``source`` is
            attached (the open-loop service mode starts cold).
        injector:
            Optional callback ``injector(completed_coflow_id, time)``
            invoked whenever a coflow finishes; any coflows it returns
            join the simulation (their ``arrival_time`` must be >= the
            completion time, and their ids must be fresh).  This is how
            DAG-structured jobs release downstream shuffles.
        on_abort:
            Optional callback ``on_abort(aborted_coflow_id, time)``
            invoked whenever the recovery policy aborts a coflow (or a
            suspended coflow becomes unrecoverable); any coflows it
            returns join the simulation under the same rules as
            ``injector``.  This is how the job-level fault-tolerance
            layer resubmits a failed stage (retried or replanned) as a
            fresh attempt.
        source:
            Optional :class:`ArrivalSource` polled at the top of every
            epoch: ``source.take(t, slack)`` returns coflows released at
            or before ``t`` and ``source.next_time(t)`` bounds the epoch
            length so no arrival is overshot.  Unlike ``injector``
            coflows, source releases may carry an ``arrival_time`` in
            the *past* -- an admission policy that deferred a coflow
            releases it late on purpose, and the CCT must keep charging
            the queueing delay.  The run ends only when the source is
            exhausted (``next_time`` returns None and ``take`` drains
            empty) and no flows remain.
        """
        coflows = list(coflows)
        if not coflows and source is None:
            return SimulationResult({}, {}, 0.0, 0.0)
        coflows = [self._with_id(c, i) for i, c in enumerate(coflows)]
        ids = [c.coflow_id for c in coflows]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate coflow ids: {sorted(ids)}")
        for c in coflows:
            if c.max_port >= self.fabric.n_ports:
                raise ValueError(
                    f"coflow {c.coflow_id} references port {c.max_port} "
                    f">= fabric size {self.fabric.n_ports}"
                )
        self.scheduler.reset()

        # Observability: the legacy ``record_timeline`` epochs list and
        # any user-supplied sink consume one shared event stream -- a
        # timeline collector is just another Instrumentation attached to
        # the same emission sites (see repro.obs).
        obs: Instrumentation | None = self.instrumentation
        collector: _TimelineCollector | None = None
        if self.record_timeline:
            collector = _TimelineCollector(self.timeline_limit)
            obs = (
                collector
                if obs is None
                else MultiInstrumentation([collector, obs])
            )
        track = obs is not None
        wants_flow_events = track and obs.wants_flow_events
        wants_port_samples = track and obs.wants_port_samples
        wants_detail = wants_flow_events or wants_port_samples
        first_byte_seen: set[int] = set()
        failures_seen = 0

        def sync_failures(manager: RecoveryManager) -> None:
            """Emit the newly appended failure-log records as events."""
            nonlocal failures_seen
            records = manager.records
            while failures_seen < len(records):
                r = records[failures_seen]
                obs.emit(
                    "failure", r.time,
                    failure_kind=r.kind, port=int(r.port),
                    cid=int(r.coflow_id), flows=int(r.flows),
                    bytes_lost=float(r.bytes_lost), detail=r.detail,
                )
                failures_seen += 1

        def submitted(c: Coflow, now: float) -> None:
            """Emit ``coflow_submit`` for a coflow known from ``now``."""
            obs.emit(
                "coflow_submit", now,
                cid=int(c.coflow_id), arrival=float(c.arrival_time),
                volume=float(c.total_volume), width=int(c.width),
                name=str(c.name), weight=float(c.weight),
            )

        # With dynamics, work on a private fabric copy and a private event
        # schedule so runs are repeatable and the caller's fabric pristine.
        fabric = self.fabric
        dynamics: FabricDynamics | None = None
        recovery: RecoveryManager | None = None
        if self.dynamics is not None:
            fabric = Fabric(
                n_ports=self.fabric.n_ports,
                rate=self.fabric.rate,
                egress_rates=self.fabric.egress_rates,
                ingress_rates=self.fabric.ingress_rates,
            )
            dynamics = FabricDynamics(list(self.dynamics.events))
            if self.recovery is not None:
                recovery = RecoveryManager(self.recovery, fabric.n_ports)

        progress = {
            c.coflow_id: CoflowProgress(
                coflow_id=c.coflow_id,
                arrival_time=c.arrival_time,
                total_volume=c.total_volume,
                width=c.width,
                name=c.name,
                deadline=c.deadline,
                weight=c.weight,
            )
            for c in coflows
        }
        # Min-heap on (arrival, id): O(log n) admission instead of the
        # O(n) ``pop(0)`` + full re-sort the list queue needed.  Ids are
        # unique, so the Coflow payload never gets compared.
        pending: list[tuple[float, int, Coflow]] = [
            (c.arrival_time, c.coflow_id, c) for c in coflows
        ]
        heapq.heapify(pending)
        total_bytes = float(sum(c.total_volume for c in coflows))
        known_ids = {c.coflow_id for c in coflows}
        if track:
            obs.emit(
                "run_start", 0.0,
                coflows=len(coflows), total_bytes=total_bytes,
            )
            for c in coflows:
                submitted(c, 0.0)

        def admit(
            new: list[Coflow], now: float, *, allow_past: bool = False
        ) -> None:
            """Validate and admit callback-provided coflows mid-run.

            ``allow_past`` relaxes the no-time-travel check for source
            releases: a deferred coflow keeps its original arrival time
            (before ``now``) so its CCT honestly includes the queueing
            delay the admission policy imposed.
            """
            nonlocal total_bytes
            if not new:
                return
            for c in new:
                if c.coflow_id < 0 or c.coflow_id in known_ids:
                    raise ValueError(
                        f"injected coflow needs a fresh non-negative id, "
                        f"got {c.coflow_id}"
                    )
                if not allow_past and c.arrival_time < now - 1e-9:
                    raise ValueError(
                        f"injected coflow {c.coflow_id} arrives in the past "
                        f"({c.arrival_time} < {now})"
                    )
                if c.max_port >= self.fabric.n_ports:
                    raise ValueError(
                        f"injected coflow {c.coflow_id} references port "
                        f"{c.max_port} >= fabric size {self.fabric.n_ports}"
                    )
                known_ids.add(c.coflow_id)
                progress[c.coflow_id] = CoflowProgress(
                    coflow_id=c.coflow_id,
                    arrival_time=c.arrival_time,
                    total_volume=c.total_volume,
                    width=c.width,
                    name=c.name,
                    deadline=c.deadline,
                    weight=c.weight,
                )
                total_bytes += c.total_volume
                heapq.heappush(pending, (c.arrival_time, c.coflow_id, c))
                if track:
                    submitted(c, now)

        def inject_after(cid: int, now: float) -> None:
            """Admit the injector's new coflows for a completed one."""
            if injector is not None:
                admit(injector(cid, now), now)

        def resubmit_after(aborted: list[int], now: float) -> None:
            """Hand aborted coflows to ``on_abort`` and admit replacements."""
            if on_abort is None:
                return
            for cid in aborted:
                admit(on_abort(cid, now), now)

        fl = ActiveFlows.empty()

        noise = self.estimate_noise
        # Factors are memoized per coflow so a whole coflow's entries can
        # be evicted in O(1) when it completes or aborts -- the old flat
        # ``(cid, src, dst)`` dict grew without bound over the run.
        noise_factors: dict[int, dict[tuple[int, int], float]] = {}
        # Debug/test handle: lets callers verify entries are evicted as
        # coflows leave the system instead of accumulating over the run.
        self._noise_factors = noise_factors
        if noise is not None:
            # Activate the flow-aligned factor column; rows appended by
            # the recovery layer arrive as NaN and are filled lazily.
            fl.view_factor = np.empty(0)

        def flow_noise_factor(cid: int, src: int, dst: int) -> float:
            per = noise_factors.get(cid)
            if per is None:
                per = noise_factors[cid] = {}
            factor = per.get((src, dst))
            if factor is None:
                factor = noise.flow_factor(cid, src, dst)
                per[(src, dst)] = factor
            return factor

        def scheduler_view(flows: ActiveFlows) -> np.ndarray:
            """Remaining volumes as the discipline sees them (maybe noisy)."""
            if noise is None:
                return flows.remaining
            # One multiply over the cached factor column; only rows the
            # recovery layer appended since the last epoch (NaN sentinel)
            # hit the per-flow memo.
            vf = flows.view_factor
            missing = np.isnan(vf)
            if missing.any():
                for i in np.flatnonzero(missing):
                    vf[i] = flow_noise_factor(
                        int(flows.cids[i]),
                        int(flows.srcs[i]),
                        int(flows.dsts[i]),
                    )
            return np.maximum(flows.remaining * vf, _ESTIMATE_FLOOR)

        # FlowGroups cache: the grouping only depends on flow identity, so
        # it survives every epoch that neither appends nor removes flows.
        # Appends and recovery edits rebuild it here; completions derive
        # it from the previous grouping (see the drain step).
        groups_cache: FlowGroups | None = None
        groups_version: int = -1

        def current_groups() -> FlowGroups:
            nonlocal groups_cache, groups_version
            if groups_cache is None or groups_version != fl.version:
                groups_cache = FlowGroups(fl.cids)
                groups_version = fl.version
            return groups_cache

        # Event-horizon rate cache (batch_events): one allocation is
        # reused across epochs while (a) the active flow set is unchanged
        # (``fl.version``), (b) no fabric/recovery mutation occurred since
        # it was computed (``cache_dirty``) and (c) the clock is strictly
        # before the scheduler's self-reported validity horizon.  The
        # epoch *boundaries* are untouched -- only the recomputation is
        # skipped -- so results are bit-identical to ``batch_events=False``.
        batch = self.batch_events
        # The cache also carries the moving flows' indices and rates, the
        # only ones each epoch's completion horizon reads.
        cached_rates: np.ndarray | None = None
        cached_moving: np.ndarray | None = None
        cached_moving_rates: np.ndarray | None = None
        cache_version = -1
        cache_valid_until = -np.inf
        cache_dirty = True

        t = 0.0
        completion: dict[int, float] = {}

        def complete(cid: int, now: float) -> None:
            completion[cid] = now
            progress[cid].completion_time = now
            noise_factors.pop(cid, None)
            if track:
                obs.emit(
                    "coflow_complete", now,
                    cid=int(cid),
                    cct=float(now - progress[cid].arrival_time),
                )
            inject_after(cid, now)

        def watchdog_abort(error):
            """Attach a crash report to a watchdog error and raise it.

            The report carries everything a post-mortem needs: the repro
            header, the simulation clock and epoch count, the active
            coflows with their outstanding bytes, the failure-log tail
            and (when a recording sink is attached) the last observed
            events.
            """
            from dataclasses import asdict

            from repro.core.resilience import crash_report

            active = []
            if fl.size:
                for cid in np.unique(fl.cids)[:20]:
                    mask = fl.cids == cid
                    active.append(
                        {
                            "coflow_id": int(cid),
                            "flows": int(mask.sum()),
                            "remaining_bytes": float(fl.remaining[mask].sum()),
                        }
                    )
            events = None
            if obs is not None:
                for sink in (obs, *getattr(obs, "children", ())):
                    if hasattr(sink, "events"):
                        events = sink.events
                        break
            context = {
                "sim_time": float(t),
                "n_epochs": n_epochs,
                "active_flows": int(fl.size),
                "active_coflows": active,
                "pending_coflows": len(pending),
                "completed_coflows": len(completion),
                "scheduler": getattr(
                    self.scheduler, "name", type(self.scheduler).__name__
                ),
                "max_epochs": self.max_epochs,
                "wall_clock_budget_s": self.wall_clock_budget_s,
                "stall_epochs": self.stall_epochs,
            }
            if recovery is not None and recovery.records:
                context["failures"] = [
                    asdict(r) for r in recovery.records[-10:]
                ]
            error.report = crash_report(error, context=context, events=events)
            raise error

        n_epochs = 0
        stall_limit = self.stall_epochs
        stalled = 0
        last_clock = -np.inf  # strictly below any valid t, including 0.0
        wall_start = (
            time.monotonic() if self.wall_clock_budget_s is not None else 0.0
        )
        for _ in range(self.max_epochs):
            n_epochs += 1
            # Watchdogs (inlined: the stall check is two comparisons per
            # epoch, the wall-clock check only runs when a budget is set).
            if stall_limit:
                if t <= last_clock:
                    stalled += 1
                    if stalled >= stall_limit:
                        from repro.core.resilience import StallError

                        watchdog_abort(
                            StallError(
                                f"simulation clock stalled at t={t:.6g}: "
                                f"{stalled} consecutive epochs without "
                                f"progress (stall_epochs={stall_limit})"
                            )
                        )
                else:
                    stalled = 0
                last_clock = t
            if (
                self.wall_clock_budget_s is not None
                and time.monotonic() - wall_start > self.wall_clock_budget_s
            ):
                from repro.core.resilience import BudgetExceeded

                watchdog_abort(
                    BudgetExceeded(
                        f"simulation exceeded its wall-clock budget of "
                        f"{self.wall_clock_budget_s:.6g}s at t={t:.6g} "
                        f"after {n_epochs} epochs"
                    )
                )
            # Admit coflows that have arrived.  The tolerance scales with
            # the ULP at ``t`` so boundary arrivals are admitted on time
            # even at large simulation clocks (see :func:`_arrival_slack`).
            slack = _arrival_slack(t)
            if source is not None:
                # Open-loop arrivals: whatever the source releases at (or
                # before) ``t`` joins the pending heap now, ahead of the
                # drain below, so a release is admitted the same epoch.
                admit(source.take(t, slack), t, allow_past=True)
            while pending and pending[0][0] <= t + slack:
                _, _, cf = heapq.heappop(pending)
                if track:
                    obs.emit("coflow_admit", t, cid=int(cf.coflow_id))
                if cf.width == 0:
                    # Degenerate coflow with no network flows completes instantly.
                    complete(cf.coflow_id, max(t, cf.arrival_time))
                    continue
                srcs_a, dsts_a, vols_a = cf.flow_arrays()
                if float(vols_a.max()) <= _VOLUME_EPS:
                    # Every flow is below the completion epsilon: the first
                    # epoch would drop them all without draining a byte, so
                    # treat the coflow like width == 0 and finish it now
                    # instead of letting it linger one epoch at zero rate.
                    complete(cf.coflow_id, max(t, cf.arrival_time))
                    continue
                factors = None
                if fl.view_factor is not None:
                    factors = np.array(
                        [
                            flow_noise_factor(cf.coflow_id, int(s), int(d))
                            for s, d in zip(srcs_a, dsts_a)
                        ],
                        dtype=float,
                    )
                # ``ActiveFlows.append`` concatenates (always copies), so
                # handing it the coflow's cached arrays is aliasing-safe.
                fl.append(
                    srcs=srcs_a,
                    dsts=dsts_a,
                    remaining=vols_a,
                    volume0=vols_a,
                    attempts=np.zeros(cf.width, dtype=np.int64),
                    cids=np.full(cf.width, cf.coflow_id),
                    view_factor=factors,
                )

            changed = False
            if dynamics is not None:
                changed = dynamics.apply_due(fabric, t)
                if changed:
                    cache_dirty = True

            # Fault handling: strand flows pinned to dead ports, resume
            # recovered ones, and apply the recovery policy.
            if recovery is not None and (
                changed or recovery.any_dead(fabric) or recovery.has_suspended
            ):
                # The recovery step may strand/resume flows or replan
                # placements; conservatively invalidate the rate cache
                # whenever it runs at all.
                cache_dirty = True
                aborted, local = recovery.step(fabric, t, fl, progress)
                for cid in aborted:
                    noise_factors.pop(cid, None)
                if track:
                    sync_failures(recovery)
                    for cid in aborted:
                        obs.emit("coflow_abort", t, cid=int(cid))
                resubmit_after(aborted, t)
                for cid in local:
                    # Replan kept the chunk on its source: if that was the
                    # coflow's last outstanding flow, the coflow is done.
                    if (
                        cid not in completion
                        and cid not in recovery.failed_coflows
                        and not (fl.cids == cid).any()
                        and cid not in recovery.suspended_coflow_ids()
                    ):
                        complete(cid, t)

            if fl.size == 0:
                waits = []
                if pending:
                    waits.append(pending[0][0])
                if source is not None:
                    nxt_src = source.next_time(t)
                    if nxt_src is not None:
                        waits.append(nxt_src)
                if dynamics is not None:
                    nxt = dynamics.next_event_time(t)
                    if nxt is not None:
                        waits.append(nxt)
                if recovery is not None:
                    wake = recovery.next_wakeup(fabric, t)
                    if wake is not None:
                        waits.append(wake)
                if waits:
                    t = max(min(waits), t)
                    continue
                if recovery is not None and recovery.has_suspended:
                    # Parked flows with no recovery event ever coming.
                    aborted = recovery.abort_unrecoverable(t)
                    for cid in aborted:
                        noise_factors.pop(cid, None)
                    if track:
                        sync_failures(recovery)
                        for cid in aborted:
                            obs.emit("coflow_abort", t, cid=int(cid))
                    resubmit_after(aborted, t)
                    if pending:
                        continue
                break

            ctx = SchedulingContext(
                time=t,
                fabric=fabric,
                srcs=fl.srcs,
                dsts=fl.dsts,
                remaining=scheduler_view(fl),
                coflow_ids=fl.cids,
                progress=progress,
                groups=current_groups(),
            )
            if (
                batch
                and cache_version == fl.version
                and not cache_dirty
                and t < cache_valid_until
            ):
                # Horizon reuse: the discipline promised (through
                # ``rates_valid_until``) that a fresh allocation would be
                # bit-identical under these exact conditions.
                rates = cached_rates
                moving = cached_moving
                moving_rates = cached_moving_rates
            else:
                rates = np.asarray(self.scheduler.allocate(ctx), dtype=float)
                if rates.shape != fl.srcs.shape:
                    raise ValueError(
                        f"scheduler returned {rates.shape}, "
                        f"expected {fl.srcs.shape}"
                    )
                fabric.validate_rates(fl.srcs, fl.dsts, rates)
                moving = (rates > 0).nonzero()[0]
                moving_rates = rates[moving]
                if batch:
                    cached_rates = rates
                    cached_moving = moving
                    cached_moving_rates = moving_rates
                    cache_version = fl.version
                    cache_dirty = False
                    cache_valid_until = self.scheduler.rates_valid_until(
                        ctx, rates
                    )
            if moving.size:
                dt_complete = float(
                    (fl.remaining[moving] / moving_rates).min()
                )
            else:
                dt_complete = np.inf
            dt_arrival = pending[0][0] - t if pending else np.inf
            dt = min(dt_complete, dt_arrival)
            if source is not None:
                nxt_src = source.next_time(t)
                if nxt_src is not None:
                    dt = min(dt, max(nxt_src - t, 0.0))
            hint = self.scheduler.next_event_hint(ctx, rates)
            if hint is not None and hint > 1e-12:
                dt = min(dt, hint)
            if dynamics is not None:
                nxt = dynamics.next_event_time(t)
                if nxt is not None:
                    dt = min(dt, nxt - t)
            if recovery is not None:
                wake = recovery.next_wakeup(fabric, t)
                if wake is not None:
                    dt = min(dt, wake - t)
            if not math.isfinite(dt):
                raise RuntimeError(
                    f"scheduler starved all {fl.size} active flows at t={t:.6g} "
                    "with no pending arrivals (deadlock)"
                )
            dt = max(dt, 0.0)

            if track:
                if wants_flow_events:
                    for cid in np.unique(fl.cids[moving]):
                        cid = int(cid)
                        if cid not in first_byte_seen:
                            first_byte_seen.add(cid)
                            obs.emit("coflow_first_byte", t, cid=cid)
                sample = {}
                if wants_detail:
                    sample["coflows"] = int(np.unique(fl.cids).size)
                    sample["queue"] = len(pending)
                    sample["residual"] = float(fl.remaining.sum())
                    if wants_port_samples:
                        used_out = np.bincount(
                            fl.srcs, weights=rates, minlength=fabric.n_ports
                        )
                        used_in = np.bincount(
                            fl.dsts, weights=rates, minlength=fabric.n_ports
                        )
                        with np.errstate(divide="ignore", invalid="ignore"):
                            busy_s = np.where(
                                fabric.egress_rates > 0,
                                used_out / fabric.egress_rates, 0.0,
                            )
                            busy_r = np.where(
                                fabric.ingress_rates > 0,
                                used_in / fabric.ingress_rates, 0.0,
                            )
                        sample["port_busy_send"] = [
                            round(float(x), 9) for x in busy_s
                        ]
                        sample["port_busy_recv"] = [
                            round(float(x), 9) for x in busy_r
                        ]
                obs.emit(
                    "epoch", t,
                    dur=float(dt), flows=fl.size, rate=float(rates.sum()),
                    **sample,
                )

            # Drain volumes and credit attained service per coflow.
            delivered = rates * dt
            fl.remaining = fl.remaining - delivered
            g = current_groups()
            sums = g.value_sums(delivered)
            for gi, cid in enumerate(g.unique_cids):
                progress[int(cid)].sent_bytes += sums[gi]
            t += dt

            done = fl.remaining <= _VOLUME_EPS
            if done.any():
                suspended_cids = (
                    recovery.suspended_coflow_ids()
                    if recovery is not None
                    else set()
                )
                for gi in np.flatnonzero(g.all_done_mask(done)):
                    cid = int(g.unique_cids[gi])
                    if cid in suspended_cids:
                        # Other flows of this coflow are parked on a
                        # dead port; the coflow is not finished yet.
                        continue
                    complete(cid, t)
                # Flows of incomplete coflows that drained to zero are
                # removed either way; parked siblings keep the coflow open.
                # ``g`` is current, so the survivors' grouping is derived
                # from it rather than rebuilt.
                kept = ~done
                fl.keep(kept)
                groups_cache = g.kept(kept)
                groups_version = fl.version
        else:
            from repro.core.resilience import BudgetExceeded

            watchdog_abort(
                BudgetExceeded(
                    f"simulation exceeded max_epochs={self.max_epochs} "
                    f"at t={t:.6g}"
                )
            )

        ccts = {
            cid: completion[cid] - progress[cid].arrival_time for cid in completion
        }
        makespan = max(completion.values()) if completion else 0.0
        if track:
            if recovery is not None:
                sync_failures(recovery)
            obs.emit("run_end", t, makespan=float(makespan))
        return SimulationResult(
            completion_times=completion,
            ccts=ccts,
            makespan=makespan,
            total_bytes=total_bytes,
            epochs=list(collector.epochs) if collector is not None else [],
            epochs_dropped=(
                collector.dropped if collector is not None else 0
            ),
            failures=list(recovery.records) if recovery is not None else [],
            failed_coflows=(
                dict(recovery.failed_coflows) if recovery is not None else {}
            ),
            n_epochs=n_epochs,
        )

    @staticmethod
    def _with_id(coflow: Coflow, default_id: int) -> Coflow:
        """Assign sequential ids to coflows that lack one."""
        if coflow.coflow_id < 0:
            return Coflow(
                flows=list(coflow.flows),
                arrival_time=coflow.arrival_time,
                coflow_id=default_id,
                name=coflow.name,
                deadline=coflow.deadline,
                weight=coflow.weight,
            )
        return coflow
