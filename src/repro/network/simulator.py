"""Event-driven flow-level (fluid) coflow simulator.

Substitute for CoflowSim, the measurement back-end of Varys, Aalo and the
CCF paper.  The simulator advances in *epochs* of constant per-flow
rates, drained fluidly.  An epoch ends at the next flow completion,
coflow arrival, source poll, scheduler hint, fabric event or recovery
wakeup, so the epoch count is not bounded by ``n_flows + n_coflows``
(admission re-polls end most epochs of a service run).  An epoch calls the
scheduler only when its inputs changed; otherwise it reuses the last
allocation (``batch_events``), so scheduler calls never exceed epochs.

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

import functools
import heapq
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> network)
    from repro.core.noise import NoisyEstimates

from repro.core.checks import at_least, non_negative, positive
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

#: Most epochs the journal holds before :meth:`_EpochLoop.settle` runs.
#: A settle builds a (journalled epochs x flows) array for the credit and
#: one for the lazy drains, so the cap bounds their memory on long reuse
#: streaks (a steady fleet under deferral polls).
_MAX_QUEUED_CREDITS = 64

#: Relative safety margin of the lazy-drain floor (see
#: :meth:`_EpochLoop.advance`): each lazy subtraction rounds by about
#: 1e-16 of the volume, so the margin covers millions of them.
_DRAIN_MARGIN = 1e-6

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
    of its arrival time.  A fixed ``1e-15`` falls below one ULP once
    ``t`` exceeds ~4.5, so the slack scales with the float spacing at
    ``t`` and keeps that floor for times near zero.
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
        if limit is not None:
            positive("timeline limit", limit)
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
        When True (default) an epoch whose active flow set, fabric and
        recovery state did not change, and whose clock is below the
        horizon the discipline declared
        (:meth:`CoflowScheduler.rates_valid_until`), *reuses* the last
        allocation instead of calling the scheduler, and such an epoch
        that ends on a wake no flow can drain to by then defers its
        drain (a *lazy* epoch).  Epoch boundaries do not move, so
        results (``n_epochs`` included) are bit-identical to
        ``batch_events=False``, which allocates and drains every epoch
        (the escape hatch and the ``ccf bench`` reference).
    instrumentation:
        Optional :class:`repro.obs.Instrumentation` sink whose ``emit``
        receives the run's event stream: coflow lifecycle transitions
        (submit -> admit -> first-byte -> complete/abort), per-epoch
        samples and every failure-log record.  The costly sample fields
        (active coflows, queue depth, residual bytes, per-port busy
        fractions) are computed only when the sink asks for flow events
        or port samples; results are bit-identical with or without a
        sink.  A caller that must react to completions or aborts passes
        ``injector`` / ``on_abort`` to :meth:`run` instead.
    max_epochs:
        Epoch budget: a run still going after this many epochs aborts
        with :class:`repro.core.resilience.BudgetExceeded`.  At least 1.
    wall_clock_budget_s:
        Optional hard bound on the run's *wall-clock* time.  When the
        epoch loop is still running after this many real seconds it
        aborts with :class:`repro.core.resilience.BudgetExceeded`
        carrying a crash report.  None (the default) disables the check
        entirely -- the hot path pays nothing; ``inf`` is a budget that
        never fires.
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
        at_least("max_epochs", max_epochs, 1)
        if wall_clock_budget_s is not None:
            positive("wall_clock_budget_s", wall_clock_budget_s, inf_ok=True)
        if stall_epochs is not None:
            non_negative("stall_epochs", stall_epochs)
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
        coflows = [self._with_id(c, i) for i, c in enumerate(coflows)]
        if not coflows and source is None:
            return SimulationResult({}, {}, 0.0, 0.0)
        loop = _EpochLoop(self, coflows, injector, on_abort, source)
        while loop.step():
            pass
        return loop.result()

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


class _EpochLoop:
    """The state of one :meth:`CoflowSimulator.run` and its epoch phases.

    :meth:`step` runs one epoch: :meth:`watchdog`, :meth:`admit_due`,
    :meth:`apply_fabric`, then either :meth:`idle` fast-forwards an empty
    fabric to :meth:`next_wake`, or the epoch takes its rates from
    :meth:`reuse` or :meth:`allocate` and :meth:`advance` drains to the
    next completion or event.  Each epoch's ``dt`` goes into one journal
    that :meth:`settle` applies before anything reads the volumes or the
    attained service.  Every coflow enters through :meth:`intake` and
    every abort goes through :meth:`abort`.
    ``SchedulingContext`` is looked up in the module globals on every
    epoch, where tracers may wrap it.
    """

    __slots__ = (
        "scheduler", "max_epochs", "wall_clock_budget_s", "stall_epochs",
        "batch", "hint_reads_progress", "injector", "on_abort", "source",
        "wakers", "obs", "collector", "track", "wants_flow_events",
        "wants_port_samples", "first_byte_seen", "failures_seen",
        "fabric", "dynamics", "recovery", "fl", "noise", "noise_factors",
        "progress", "pending", "total_bytes", "completion",
        "groups_cache", "groups_version", "cached", "cache_version",
        "cache_valid_until", "cache_dirty", "journal", "journal_key",
        "drained", "drain_floor", "lazy_ok", "t", "n_epochs", "stalled",
        "last_clock", "wall_start",
    )

    def __init__(
        self, sim: CoflowSimulator, coflows: list[Coflow],
        injector: "Callable[[int, float], list[Coflow]] | None",
        on_abort: "Callable[[int, float], list[Coflow]] | None",
        source: "ArrivalSource | None",
    ) -> None:
        self.scheduler = sim.scheduler
        self.max_epochs = sim.max_epochs
        self.wall_clock_budget_s = sim.wall_clock_budget_s
        self.stall_epochs = sim.stall_epochs
        self.batch = sim.batch_events
        self.injector, self.on_abort, self.source = injector, on_abort, source
        self.scheduler.reset()

        # ``record_timeline`` is one more sink on the event stream.
        obs: Instrumentation | None = sim.instrumentation
        self.collector = None
        if sim.record_timeline:
            self.collector = _TimelineCollector(sim.timeline_limit)
            obs = (
                self.collector
                if obs is None
                else MultiInstrumentation([self.collector, obs])
            )
        self.obs = obs
        self.track = obs is not None
        self.wants_flow_events = self.track and obs.wants_flow_events
        self.wants_port_samples = self.track and obs.wants_port_samples
        self.first_byte_seen: set[int] = set()
        self.failures_seen = 0

        # With dynamics, work on a private fabric copy and a private event
        # schedule so runs are repeatable and the caller's fabric pristine.
        fabric = self.fabric = sim.fabric
        self.dynamics = self.recovery = None
        # Bound "next event" queries, in the order the horizon reads them.
        self.wakers = [] if source is None else [source.next_time]
        if sim.dynamics is not None:
            fabric = self.fabric = Fabric(
                n_ports=fabric.n_ports,
                rate=fabric.rate,
                egress_rates=fabric.egress_rates,
                ingress_rates=fabric.ingress_rates,
            )
            self.dynamics = FabricDynamics(list(sim.dynamics.events))
            self.wakers.append(self.dynamics.next_event_time)
            if sim.recovery is not None:
                self.recovery = RecoveryManager(sim.recovery, fabric.n_ports)
                self.wakers.append(
                    functools.partial(self.recovery.next_wakeup, fabric)
                )

        self.fl = ActiveFlows.empty()
        self.noise = sim.estimate_noise
        # Factors are memoized per coflow so a whole coflow's entries can
        # be evicted in O(1) when it completes or aborts.
        self.noise_factors: dict[int, dict[tuple[int, int], float]] = {}
        # Debug/test handle: lets callers verify entries are evicted as
        # coflows leave the system instead of accumulating over the run.
        sim._noise_factors = self.noise_factors
        if self.noise is not None:
            # Activate the flow-aligned factor column; rows appended by
            # the recovery layer arrive as NaN and are filled lazily.
            self.fl.view_factor = np.empty(0)

        # FlowGroups cache: the grouping only depends on flow identity, so
        # it survives every epoch that neither appends nor removes flows.
        # Appends and recovery edits rebuild it in :meth:`groups`;
        # completions derive it from the previous grouping (see
        # :meth:`advance`).
        self.groups_cache: FlowGroups | None = None
        self.groups_version = -1

        # Event-horizon rate cache (batch_events, see :meth:`reuse`): the
        # last (rates, moving indices, moving rates), the flow-list
        # version it was computed for, the scheduler's validity horizon
        # and a dirty bit set by fabric or recovery changes.
        self.cached: "tuple[np.ndarray, ...] | None" = None
        self.cache_version = -1
        self.cache_valid_until = -np.inf
        self.cache_dirty = True

        # The epoch journal (see :meth:`settle`): the ``dt`` of every
        # epoch since the last settle, all drained at the (rates, groups)
        # that :meth:`allocate` last set.  The first ``drained`` entries
        # are already applied to ``fl.remaining``; the rest are lazy
        # epochs (see :meth:`advance`).  No entry is credited to
        # ``sent_bytes`` yet.  Lazy epochs are off when a hint or an epoch
        # sample reads the volumes every epoch.
        self.journal: list[float] = []
        self.journal_key: "tuple[np.ndarray, FlowGroups] | None" = None
        self.drained = 0
        self.drain_floor = -np.inf
        self.hint_reads_progress = (
            type(self.scheduler).next_event_hint
            is not CoflowScheduler.next_event_hint
        )
        self.lazy_ok = not (
            self.hint_reads_progress
            or self.wants_flow_events
            or self.wants_port_samples
        )

        self.t = 0.0
        self.completion: dict[int, float] = {}
        self.progress: dict[int, CoflowProgress] = {}
        # Min-heap on (arrival, id): O(log n) admission.  Ids are
        # unique, so the Coflow payload never gets compared.
        self.pending: list[tuple[float, int, Coflow]] = []
        self.total_bytes = 0.0
        if self.track:
            obs.emit(
                "run_start", 0.0,
                coflows=len(coflows),
                total_bytes=float(sum(c.total_volume for c in coflows)),
            )
        self.intake(coflows, 0.0)

        self.n_epochs = self.stalled = 0
        self.last_clock = -np.inf  # strictly below any valid t, including 0.0
        self.wall_start = time.monotonic()

    # -- coflows entering and leaving ------------------------------------
    def intake(
        self, new: list[Coflow], now: float, allow_past: bool = False
    ) -> None:
        """Validate coflows known from ``now`` and queue them for admission.

        The initial coflows, source releases and the coflows the
        ``injector`` / ``on_abort`` callbacks return all enter here.
        ``allow_past`` relaxes the no-time-travel check for source
        releases: a deferred coflow keeps its original arrival time
        (before ``now``) so its CCT honestly includes the queueing delay
        the admission policy imposed.
        """
        n_ports = self.fabric.n_ports
        for c in new:
            cid = c.coflow_id
            if cid < 0 or cid in self.progress:
                raise ValueError(
                    f"coflow id {cid} is negative or a duplicate: every "
                    f"coflow needs a fresh non-negative id"
                )
            if not allow_past and c.arrival_time < now - 1e-9:
                raise ValueError(
                    f"injected coflow {cid} arrives in the past "
                    f"({c.arrival_time} < {now})"
                )
            if c.max_port >= n_ports:
                raise ValueError(
                    f"coflow {cid} references port {c.max_port} "
                    f">= fabric size {n_ports}"
                )
            volume = c.total_volume
            self.progress[cid] = CoflowProgress(
                cid, c.arrival_time, volume, c.width, name=c.name,
                deadline=c.deadline, weight=c.weight,
            )
            self.total_bytes += volume
            heapq.heappush(self.pending, (c.arrival_time, cid, c))
            if self.track:
                self.obs.emit(
                    "coflow_submit", now,
                    cid=int(cid), arrival=float(c.arrival_time),
                    volume=float(volume), width=int(c.width),
                    name=str(c.name), weight=float(c.weight),
                )

    def complete(self, cid: int, now: float) -> None:
        """Record a finished coflow and admit what ``injector`` releases."""
        self.completion[cid] = now
        progress = self.progress[cid]
        progress.completion_time = now
        self.noise_factors.pop(cid, None)
        if self.track:
            self.obs.emit(
                "coflow_complete", now,
                cid=int(cid), cct=float(now - progress.arrival_time),
            )
        if self.injector is not None:
            self.intake(self.injector(cid, now), now)

    def abort(self, aborted: list[int], now: float) -> None:
        """Publish new failure-log records, retire the ``aborted`` coflows
        and admit what ``on_abort`` resubmits for them."""
        for cid in aborted:
            self.noise_factors.pop(cid, None)
        if self.track:
            self.sync_failures()
            for cid in aborted:
                self.obs.emit("coflow_abort", now, cid=int(cid))
        if self.on_abort is not None:
            for cid in aborted:
                self.intake(self.on_abort(cid, now), now)

    def sync_failures(self) -> None:
        """Emit the newly appended failure-log records as events."""
        records = self.recovery.records
        while self.failures_seen < len(records):
            r = records[self.failures_seen]
            self.obs.emit(
                "failure", r.time,
                failure_kind=r.kind, port=int(r.port),
                cid=int(r.coflow_id), flows=int(r.flows),
                bytes_lost=float(r.bytes_lost), detail=r.detail,
            )
            self.failures_seen += 1

    # -- per-epoch helpers -------------------------------------------------
    def noise_factor(self, cid: int, src: int, dst: int) -> float:
        per = self.noise_factors.get(cid)
        if per is None:
            per = self.noise_factors[cid] = {}
        factor = per.get((src, dst))
        if factor is None:
            factor = per[(src, dst)] = self.noise.flow_factor(cid, src, dst)
        return factor

    def scheduler_view(self) -> np.ndarray:
        """Remaining volumes as the discipline sees them (maybe noisy)."""
        fl = self.fl
        if self.noise is None:
            return fl.remaining
        # One multiply over the cached factor column; only rows the
        # recovery layer appended since the last epoch (NaN sentinel)
        # hit the per-flow memo.
        vf = fl.view_factor
        missing = np.isnan(vf)
        if missing.any():
            for i in np.flatnonzero(missing):
                vf[i] = self.noise_factor(
                    int(fl.cids[i]), int(fl.srcs[i]), int(fl.dsts[i])
                )
        return np.maximum(fl.remaining * vf, _ESTIMATE_FLOOR)

    def groups(self) -> FlowGroups:
        """The active flows' grouping, rebuilt only after they changed."""
        if self.groups_cache is None or self.groups_version != self.fl.version:
            self.groups_cache = FlowGroups(self.fl.cids)
            self.groups_version = self.fl.version
        return self.groups_cache

    def drain(self) -> None:
        """Drain ``fl.remaining`` by the journal's lazy tail, in order.

        Every entry drained at the journal's rates, so row ``k`` of the
        stacked table is ``tail[k] * rates``; subtracting the rows one
        after another is each lazy epoch's ``remaining - rates * dt``,
        bit for bit.
        """
        journal, fl = self.journal, self.fl
        if self.drained == len(journal):
            return
        tail = journal[self.drained:]
        table = np.empty((len(tail) + 1, fl.size))
        table[0] = fl.remaining
        np.multiply.outer(tail, self.journal_key[0], out=table[1:])
        fl.remaining = np.subtract.reduce(table)
        self.drained = len(journal)

    def settle(self) -> None:
        """Apply the journal and empty it: :meth:`drain` its lazy tail,
        then credit every entry's bytes to ``sent_bytes``, adding each
        epoch's per-coflow sums left to right as a per-epoch credit
        would (see :meth:`FlowGroups.scaled_value_sums`)."""
        journal = self.journal
        if not journal:
            return
        self.drain()
        rates, g = self.journal_key
        sums = g.scaled_value_sums(journal, rates)
        progress = self.progress
        for cid, per_epoch in zip(g.unique_cids.tolist(), sums):
            p = progress[cid]
            sent = p.sent_bytes
            for v in per_epoch:
                sent += v
            p.sent_bytes = sent
        journal.clear()
        self.drained = 0

    def next_wake(self, t: float) -> float | None:
        """Earliest pending arrival, source release, fabric event or
        recovery wakeup after ``t`` -- None when nothing is scheduled."""
        wake = self.pending[0][0] if self.pending else None
        for waker in self.wakers:
            nxt = waker(t)
            if nxt is not None and (wake is None or nxt < wake):
                wake = nxt
        return wake

    # -- the phases --------------------------------------------------------
    def step(self) -> bool:
        """Run one epoch; False once nothing is left to simulate."""
        self.watchdog()
        t = self.t
        self.admit_due(t)
        if self.dynamics is not None:
            self.apply_fabric(t)
        fl = self.fl
        if fl.size == 0:
            return self.idle(t)
        cached = self.reuse(t)
        if cached is None:
            # ``allocate`` reads the volumes; a reuse epoch's context keeps
            # them as of the last drain and reaches no scheduler method.
            self.settle()
        ctx = SchedulingContext(
            time=t,
            fabric=self.fabric,
            srcs=fl.srcs,
            dsts=fl.dsts,
            remaining=self.scheduler_view(),
            coflow_ids=fl.cids,
            progress=self.progress,
            groups=self.groups(),
        )
        if cached is None:
            self.advance(ctx, *self.allocate(ctx), False)
        else:
            self.advance(ctx, *cached, True)
        return True

    def watchdog(self) -> None:
        """Count the epoch; trip on the epoch budget, a stalled clock or
        the wall-clock budget."""
        t, budget, trip = self.t, self.wall_clock_budget_s, None
        if self.n_epochs >= self.max_epochs:
            trip = "BudgetExceeded", (
                f"simulation exceeded max_epochs={self.max_epochs} "
                f"at t={t:.6g}"
            )
        else:
            self.n_epochs += 1
            if self.stall_epochs:
                if t <= self.last_clock:
                    self.stalled += 1
                    if self.stalled >= self.stall_epochs:
                        trip = "StallError", (
                            f"simulation clock stalled at t={t:.6g}: "
                            f"{self.stalled} consecutive epochs without "
                            f"progress (stall_epochs={self.stall_epochs})"
                        )
                else:
                    self.stalled = 0
                self.last_clock = t
            if trip is None and budget is not None and (
                time.monotonic() - self.wall_start > budget
            ):
                trip = "BudgetExceeded", (
                    f"simulation exceeded its wall-clock budget of "
                    f"{budget:.6g}s at t={t:.6g} after {self.n_epochs} epochs"
                )
        if trip is not None:
            self.watchdog_abort(*trip)

    def watchdog_abort(self, error_type: str, message: str) -> None:
        """Raise a :mod:`repro.core.resilience` watchdog error carrying
        a crash report.

        The report carries everything a post-mortem needs: the repro
        header, the simulation clock and epoch count, the active
        coflows with their outstanding bytes, the failure-log tail and
        (when a recording sink is attached) the last observed events.
        """
        from dataclasses import asdict

        from repro.core import resilience

        error = getattr(resilience, error_type)(message)
        self.settle()
        fl = self.fl
        masks = [(cid, fl.cids == cid) for cid in np.unique(fl.cids)[:20]]
        active = [
            {
                "coflow_id": int(cid),
                "flows": int(mask.sum()),
                "remaining_bytes": float(fl.remaining[mask].sum()),
            }
            for cid, mask in masks
        ]
        events = None
        if self.obs is not None:
            for sink in (self.obs, *getattr(self.obs, "children", ())):
                if hasattr(sink, "events"):
                    events = sink.events
                    break
        context = {
            "sim_time": float(self.t),
            "n_epochs": self.n_epochs,
            "active_flows": int(fl.size),
            "active_coflows": active,
            "pending_coflows": len(self.pending),
            "completed_coflows": len(self.completion),
            "scheduler": getattr(
                self.scheduler, "name", type(self.scheduler).__name__
            ),
            "max_epochs": self.max_epochs,
            "wall_clock_budget_s": self.wall_clock_budget_s,
            "stall_epochs": self.stall_epochs,
        }
        if self.recovery is not None and self.recovery.records:
            context["failures"] = [
                asdict(r) for r in self.recovery.records[-10:]
            ]
        error.report = resilience.crash_report(
            error, context=context, events=events
        )
        raise error

    def admit_due(self, t: float) -> None:
        """Poll the source, then move every coflow due by ``t`` from the
        pending heap onto the fabric."""
        # The tolerance scales with the ULP at ``t`` so boundary arrivals
        # are admitted on time even at large simulation clocks (see
        # :func:`_arrival_slack`).
        slack = _arrival_slack(t)
        if self.source is not None:
            # Open-loop arrivals: whatever the source releases at (or
            # before) ``t`` joins the pending heap now, ahead of the
            # drain below, so a release is admitted the same epoch.
            self.intake(self.source.take(t, slack), t, allow_past=True)
        pending, fl = self.pending, self.fl
        while pending and pending[0][0] <= t + slack:
            _, cid, cf = heapq.heappop(pending)
            if self.track:
                self.obs.emit("coflow_admit", t, cid=int(cid))
            if cf.width == 0 or cf.flow_arrays()[2].max() <= _VOLUME_EPS:
                # No flow, or every flow below the completion epsilon (the
                # first epoch would drop them all without draining a
                # byte): the coflow completes at once.
                self.complete(cid, max(t, cf.arrival_time))
                continue
            srcs, dsts, vols = cf.flow_arrays()
            factors = None
            if fl.view_factor is not None:
                factors = np.array(
                    [
                        self.noise_factor(cid, int(s), int(d))
                        for s, d in zip(srcs, dsts)
                    ],
                    dtype=float,
                )
            # ``ActiveFlows.append`` concatenates (always copies), so
            # handing it the coflow's cached arrays is aliasing-safe.
            self.settle()
            fl.append(
                srcs=srcs,
                dsts=dsts,
                remaining=vols,
                volume0=vols,
                attempts=np.zeros(cf.width, dtype=np.int64),
                cids=np.full(cf.width, cid),
                view_factor=factors,
            )

    def apply_fabric(self, t: float) -> None:
        """Apply the fabric events due by ``t``; strand flows pinned to
        dead ports, resume recovered ones and apply the recovery policy."""
        fabric, recovery = self.fabric, self.recovery
        changed = self.dynamics.apply_due(fabric, t)
        if changed:
            self.cache_dirty = True
        if recovery is None or not (
            changed or recovery.any_dead(fabric) or recovery.has_suspended
        ):
            return
        # The recovery step may strand/resume flows or replan placements;
        # conservatively invalidate the rate cache whenever it runs at all.
        self.cache_dirty = True
        self.settle()
        aborted, local = recovery.step(fabric, t, self.fl, self.progress)
        self.abort(aborted, t)
        for cid in local:
            # Replan kept the chunk on its source: if that was the
            # coflow's last outstanding flow, the coflow is done.
            if (
                cid not in self.completion
                and cid not in recovery.failed_coflows
                and not (self.fl.cids == cid).any()
                and cid not in recovery.suspended_coflow_ids()
            ):
                self.complete(cid, t)

    def idle(self, t: float) -> bool:
        """No active flow: fast-forward to the next event, or end the run
        (aborting parked flows no recovery event will ever resume)."""
        wake = self.next_wake(t)
        if wake is not None:
            self.t = max(wake, t)
            return True
        recovery = self.recovery
        if recovery is not None and recovery.has_suspended:
            # No settle: this abort reads neither the volumes nor
            # ``sent_bytes``, and the next reader settles first.
            self.abort(recovery.abort_unrecoverable(t), t)
            return bool(self.pending)
        return False

    def reuse(self, t: float) -> "tuple[np.ndarray, ...] | None":
        """The cached allocation, while the discipline promised (through
        ``rates_valid_until``) that a fresh one would be bit-identical."""
        if (
            self.batch
            and self.cache_version == self.fl.version
            and not self.cache_dirty
            and t < self.cache_valid_until
        ):
            return self.cached
        return None

    def allocate(self, ctx: SchedulingContext) -> "tuple[np.ndarray, ...]":
        """Ask the discipline for rates, validate them, cache them and key
        the (settled) journal to them."""
        fl = self.fl
        rates = np.asarray(self.scheduler.allocate(ctx), dtype=float)
        if rates.shape != fl.srcs.shape:
            raise ValueError(
                f"scheduler returned {rates.shape}, expected {fl.srcs.shape}"
            )
        self.fabric.validate_rates(fl.srcs, fl.dsts, rates)
        moving = (rates > 0).nonzero()[0]
        alloc = (rates, moving, rates[moving])
        self.journal_key = rates, self.groups()
        if self.batch:
            self.cached = alloc
            self.cache_version = fl.version
            self.cache_dirty = False
            self.cache_valid_until = self.scheduler.rates_valid_until(
                ctx, rates
            )
        return alloc

    def advance(
        self, ctx: SchedulingContext, rates: np.ndarray, moving: np.ndarray,
        moving_rates: np.ndarray, reused: bool,
    ) -> None:
        """Drain the flows to the next completion or event, journal the
        epoch and complete the finished coflows.

        A reuse epoch whose next wake comes before ``drain_floor`` is
        *lazy*: no flow can reach ``_VOLUME_EPS`` by then, so its length
        is the wake's and it only journals ``dt``, undrained, instead of
        draining and checking every flow.  The floor is set by an eager
        epoch whose rates the next epoch may reuse: the earliest time a
        moving flow could drain to ``_VOLUME_EPS``, less a relative
        ``_DRAIN_MARGIN`` that covers the rounding of the lazy
        subtractions.
        """
        t, fl, journal = ctx.time, self.fl, self.journal
        hint = None
        if self.hint_reads_progress:
            self.settle()
            hint = self.scheduler.next_event_hint(ctx, rates)
        wake = self.next_wake(t)
        lazy = reused and wake is not None and t <= wake < self.drain_floor
        if lazy:
            dt = wake - t
        else:
            # Only the volumes are read here: the credit stays journalled.
            self.drain()
            if moving.size:
                dt = float((fl.remaining[moving] / moving_rates).min())
            else:
                dt = np.inf
            if hint is not None and hint > 1e-12:
                dt = min(dt, hint)
            if wake is not None:
                dt = min(dt, wake - t)
            if not math.isfinite(dt):
                raise RuntimeError(
                    f"scheduler starved all {fl.size} active flows at "
                    f"t={t:.6g} with no pending arrivals (deadlock)"
                )
            dt = max(dt, 0.0)
        if self.track:
            self.emit_epoch(t, dt, rates, moving, reused)

        journal.append(dt)
        if not lazy:
            fl.remaining = fl.remaining - rates * dt
            self.drained = len(journal)
        if len(journal) == _MAX_QUEUED_CREDITS:
            self.settle()
        self.t = t = t + dt
        if lazy:
            return

        g = self.groups()
        done = fl.remaining <= _VOLUME_EPS
        floor = -np.inf
        if done.any():
            suspended_cids = (
                self.recovery.suspended_coflow_ids()
                if self.recovery is not None
                else set()
            )
            for gi in np.flatnonzero(g.all_done_mask(done)):
                cid = int(g.unique_cids[gi])
                if cid in suspended_cids:
                    # Other flows of this coflow are parked on a
                    # dead port; the coflow is not finished yet.
                    continue
                self.complete(cid, t)
            # Flows of incomplete coflows that drained to zero are
            # removed either way; parked siblings keep the coflow open.
            # ``g`` is current, so the survivors' grouping is derived
            # from it rather than rebuilt.
            kept = ~done
            fl.keep(kept)
            self.groups_cache = g.kept(kept)
            self.groups_version = fl.version
        elif self.lazy_ok and t < self.cache_valid_until:
            # The next epoch may reuse these rates: record the floor.
            floor = np.inf
            if moving.size:
                floor = t + (1.0 - _DRAIN_MARGIN) * float(
                    ((fl.remaining[moving] - _VOLUME_EPS) / moving_rates).min()
                )
        self.drain_floor = floor

    def emit_epoch(
        self, t: float, dt: float, rates: np.ndarray, moving: np.ndarray,
        reused: bool,
    ) -> None:
        """Emit first-byte events and the epoch sample to the sink."""
        obs, fl = self.obs, self.fl
        if self.wants_flow_events:
            for cid in np.unique(fl.cids[moving]):
                cid = int(cid)
                if cid not in self.first_byte_seen:
                    self.first_byte_seen.add(cid)
                    obs.emit("coflow_first_byte", t, cid=cid)
        sample = {}
        if self.wants_flow_events or self.wants_port_samples:
            sample["coflows"] = int(np.unique(fl.cids).size)
            sample["queue"] = len(self.pending)
            sample["residual"] = float(fl.remaining.sum())
            if self.wants_port_samples:
                fab = self.fabric
                for key, ports, cap in (
                    ("port_busy_send", fl.srcs, fab.egress_rates),
                    ("port_busy_recv", fl.dsts, fab.ingress_rates),
                ):
                    used = np.bincount(ports, rates, minlength=fab.n_ports)
                    with np.errstate(divide="ignore", invalid="ignore"):
                        busy = np.where(cap > 0, used / cap, 0.0)
                    sample[key] = [round(float(x), 9) for x in busy]
        obs.emit(
            "epoch", t,
            dur=float(dt), flows=fl.size, rate=float(rates.sum()),
            reused=reused, **sample,
        )

    def result(self) -> SimulationResult:
        """Settle the last journalled epochs and build the run's result."""
        self.settle()
        completion, recovery = self.completion, self.recovery
        ccts = {
            cid: completion[cid] - self.progress[cid].arrival_time
            for cid in completion
        }
        makespan = max(completion.values()) if completion else 0.0
        if self.track:
            if recovery is not None:
                self.sync_failures()
            self.obs.emit("run_end", self.t, makespan=float(makespan))
        collector = self.collector
        return SimulationResult(
            completion_times=completion,
            ccts=ccts,
            makespan=makespan,
            total_bytes=self.total_bytes,
            epochs=list(collector.epochs) if collector is not None else [],
            epochs_dropped=collector.dropped if collector is not None else 0,
            failures=list(recovery.records) if recovery is not None else [],
            failed_coflows=(
                dict(recovery.failed_coflows) if recovery is not None else {}
            ),
            n_epochs=self.n_epochs,
        )
