"""Overload-control policies and the admission controller.

The controller sits between an :class:`~repro.service.arrivals.ArrivalStream`
and the simulator: it implements the simulator's
:class:`~repro.network.simulator.ArrivalSource` protocol, so the epoch
loop polls it every epoch, and it rules on each arrival with a pluggable
:class:`AdmissionPolicy`:

* ``accept-all`` -- the baseline: every arrival is admitted.  Under
  overload the active set, backlog and CCTs grow without bound; this is
  the collapse mode the other policies exist to prevent.
* ``bounded-queue`` -- backpressure: above a backlog watermark arrivals
  wait in a bounded deferral queue with
  :class:`~repro.core.resilience.Backoff` delays (simulated seconds);
  a full queue or exhausted retries sheds the coflow.  Deferred coflows
  keep their original arrival time, so their CCT honestly charges the
  queueing delay.
* ``load-shedding`` -- degrade by size class: above the watermark only
  large coflows are dropped (cheap queries keep flowing); above a hard
  multiple of the watermark everything is dropped.
* ``slo-guard`` -- closed-loop shedding on the objective: shed when the
  sliding-window p95 CCT of *admitted* work breaches the budget or the
  backlog predicts a breach, readmit (with hysteresis) once the backlog
  re-enters.

Every ruling increments ``service_*`` counters in the
:class:`~repro.obs.MetricsRegistry` and emits an ``admission`` trace
event, so shed/deferred/admitted counts are visible in ``ccf stats``.

The overload signal is *backlog seconds*: admitted-but-unfinished bytes
divided by the fabric's aggregate capacity -- the optimistic time to
drain everything in flight.  It is cheap (O(1) per event), scheduler-
agnostic, and rises exactly when offered load exceeds capacity.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.checks import at_least, in_range, positive
from repro.core.resilience import Backoff
from repro.network.fabric import Fabric
from repro.network.flow import Coflow
from repro.network.simulator import ArrivalSource
from repro.obs.instrument import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.service.arrivals import ArrivalStream

__all__ = [
    "ServiceState",
    "AdmissionPolicy",
    "AcceptAll",
    "BoundedQueue",
    "LoadShedding",
    "SLOGuard",
    "AdmissionController",
    "make_admission_policy",
    "POLICIES",
]

#: Minimum completed-coflow samples before ``recent_p95`` is reported
#: (a p95 of three samples is noise, not a signal to shed on).
_MIN_P95_SAMPLES = 20


@dataclass(frozen=True)
class ServiceState:
    """Live service signals a policy rules against.

    ``backlog_seconds`` is the optimistic drain time of everything
    admitted and unfinished: ``outstanding_bytes / capacity`` with
    ``capacity`` the fabric's aggregate egress rate.  ``recent_p95`` is
    the sliding-window p95 CCT of admitted completions, or None until
    enough samples exist.
    """

    outstanding_bytes: float
    capacity: float
    queued: int
    recent_p95: float | None

    @property
    def backlog_seconds(self) -> float:
        if self.outstanding_bytes <= 0:
            # Completion bookkeeping accumulates float error; an empty
            # system is exactly zero backlog, never -1e-14.
            return 0.0
        if self.capacity <= 0:
            return float("inf")
        return self.outstanding_bytes / self.capacity


class AdmissionPolicy:
    """Base policy: rules on one arrival given the live service state.

    :meth:`decide` returns ``(decision, reason)`` with decision one of
    ``"admit"`` / ``"defer"`` / ``"shed"``; ``reason`` is a short slug
    recorded in the trace (empty for plain admits).  ``attempt`` counts
    prior deferrals of this same coflow (0 on first sight).  Policies
    must be deterministic: same inputs, same ruling.
    """

    name = "base"
    #: Deferral schedule (simulated seconds) for policies that defer.
    backoff = Backoff(
        max_attempts=5, base_delay=0.5, multiplier=2.0,
        max_delay=30.0, jitter=0.1,
    )

    def decide(
        self, coflow: Coflow, state: ServiceState, attempt: int
    ) -> tuple[str, str]:
        raise NotImplementedError

    def defer_delay(self, attempt: int) -> float:
        """Simulated-seconds wait before re-deciding a deferred coflow."""
        return self.backoff.delay(
            min(attempt + 1, self.backoff.max_attempts)
        )


class AcceptAll(AdmissionPolicy):
    """Admit everything -- the open-loop baseline (and collapse mode)."""

    name = "accept-all"

    def decide(self, coflow, state, attempt):
        return "admit", ""


@dataclass
class BoundedQueue(AdmissionPolicy):
    """Backpressure: defer above the watermark, shed when the queue fills.

    Parameters
    ----------
    watermark_s:
        Backlog (seconds of drain) above which arrivals are deferred.
    queue_limit:
        Maximum coflows waiting in the deferral queue; beyond it new
        arrivals are shed immediately.
    backoff:
        Deferral-delay schedule; ``max_attempts`` bounds how often one
        coflow is re-queued before it is shed.
    """

    watermark_s: float = 30.0
    queue_limit: int = 64
    backoff: Backoff = field(
        default_factory=lambda: Backoff(
            max_attempts=5, base_delay=0.5, multiplier=2.0,
            max_delay=30.0, jitter=0.1,
        )
    )
    name = "bounded-queue"

    def __post_init__(self) -> None:
        positive("watermark_s", self.watermark_s)
        at_least("queue_limit", self.queue_limit, 1)

    def decide(self, coflow, state, attempt):
        if state.backlog_seconds < self.watermark_s:
            return "admit", ""
        if attempt >= self.backoff.max_attempts:
            return "shed", "retries_exhausted"
        if state.queued >= self.queue_limit:
            return "shed", "queue_full"
        return "defer", "backpressure"


@dataclass
class LoadShedding(AdmissionPolicy):
    """Degrade by size class above a utilization watermark.

    Between ``watermark_s`` and ``hard_factor * watermark_s`` of
    backlog only coflows of at least ``large_bytes`` are shed -- small
    interactive queries keep flowing while bulk transfers are dropped.
    Beyond the hard level everything is shed.
    """

    watermark_s: float = 30.0
    large_bytes: float = 2e6
    hard_factor: float = 3.0
    name = "load-shedding"

    def __post_init__(self) -> None:
        positive("watermark_s", self.watermark_s)
        positive("large_bytes", self.large_bytes)
        at_least("hard_factor", self.hard_factor, 1)

    def decide(self, coflow, state, attempt):
        backlog = state.backlog_seconds
        if backlog < self.watermark_s:
            return "admit", ""
        if backlog >= self.watermark_s * self.hard_factor:
            return "shed", "watermark_hard"
        if coflow.total_volume >= self.large_bytes:
            return "shed", "watermark_large"
        return "admit", "degraded"


@dataclass
class SLOGuard(AdmissionPolicy):
    """Shed until admitted-work p95 CCT re-enters the budget.

    Two breach signals, because the measured one lags: the
    sliding-window p95 CCT of admitted completions is the *objective*,
    but under overload the slowest (largest) coflows finish last, so by
    the time their CCTs land in the window the damage is admitted.  The
    guard therefore also sheds *predictively* when the backlog exceeds
    ``backlog_factor * budget_s`` -- an arrival admitted behind that
    much queued work cannot finish inside the budget (the remaining
    ``1 - backlog_factor`` is headroom for its own service time).

    Recovery is governed by the backlog signal with hysteresis
    (``margin``): the CCT window necessarily stays polluted by slow
    pre-shed completions for a while, and recovering on it alone would
    latch the guard shut -- no admissions, no fresh completions, no
    signal change.  Backlog is live: once the queue has drained the
    service is healthy again.
    """

    budget_s: float = 60.0
    margin: float = 0.9
    backlog_factor: float = 0.4
    name = "slo-guard"

    def __post_init__(self) -> None:
        positive("budget_s", self.budget_s)
        in_range("margin", self.margin, 0, 1, "(]")
        in_range("backlog_factor", self.backlog_factor, 0, 1, "(]")
        self._shedding = False

    def decide(self, coflow, state, attempt):
        backlog_limit = self.backlog_factor * self.budget_s
        if self._shedding:
            if state.backlog_seconds <= self.margin * backlog_limit:
                self._shedding = False
                return "admit", "recovered"
            return "shed", "slo_breach"
        p95 = state.recent_p95
        measured_breach = p95 is not None and p95 > self.budget_s
        predicted_breach = state.backlog_seconds > backlog_limit
        if measured_breach or predicted_breach:
            self._shedding = True
            return "shed", "slo_breach"
        return "admit", ""


POLICIES = {
    "accept-all": AcceptAll,
    "bounded-queue": BoundedQueue,
    "load-shedding": LoadShedding,
    "slo-guard": SLOGuard,
}


def make_admission_policy(name: str, **kwargs) -> AdmissionPolicy:
    """Instantiate a policy from the registry by name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown admission policy {name!r}; "
            f"pick from {sorted(POLICIES)}"
        ) from None
    return cls(**kwargs)


class AdmissionController(ArrivalSource):
    """Routes stream arrivals through a policy into the simulator.

    Implements the simulator's :class:`ArrivalSource` protocol.  The
    epoch loop polls :meth:`next_time` / :meth:`take`; completions and
    aborts flow back in through :meth:`record_completion` /
    :meth:`record_abort`, which the service loop passes to
    :meth:`CoflowSimulator.run` as its ``injector`` / ``on_abort``
    callbacks.  That is how the controller tracks outstanding bytes and
    the sliding CCT window the policies rule against; it measures each
    CCT from the arrival time it kept at admission.

    Memory is bounded: one materialized arrival at a time, a deferral
    heap capped by the policy's queue behavior, the fixed-size CCT
    window, and one ``(arrival, cct)`` float pair per completion for
    steady-state reporting (bounded by the stream length).
    """

    def __init__(
        self,
        stream: ArrivalStream,
        policy: AdmissionPolicy,
        fabric: Fabric,
        *,
        metrics: MetricsRegistry | None = None,
        instrumentation: Instrumentation | None = None,
        window: int = 256,
    ) -> None:
        self.stream = stream
        self.policy = policy
        self.capacity = float(fabric.egress_rates.sum())
        self.metrics = metrics or MetricsRegistry()
        self.obs = (
            instrumentation
            if instrumentation is not None and instrumentation.enabled
            else None
        )
        self._deferred: list[tuple[float, int, int, Coflow]] = []
        # attempt -> deferral delay: policies are deterministic, and
        # re-polls under backpressure ask for the same few attempts.
        self._defer_delays: dict[int, float] = {}
        self._seq = 0
        #: cid -> (arrival_time, volume) of each admitted, unfinished coflow.
        self._outstanding: dict[int, tuple[float, float]] = {}
        self._outstanding_bytes = 0.0
        self._ccts: deque[float] = deque(maxlen=window)
        # State cache: policies rule against ``state()`` on every ruling,
        # but its inputs move only on admissions, deferrals and
        # completions, which are far rarer than re-polls under
        # backpressure.  The last state is kept with its key
        # ``(outstanding_bytes, queued, cct_version)``; the version
        # counter bumps whenever the CCT window changes, so a cached
        # state holds the exact floats a fresh one would.
        self._cct_version = 0
        self._state: tuple[tuple[float, int, int], ServiceState] | None = None
        #: (arrival_time, cct) per completed admitted coflow, for the
        #: steady-state window (O(arrivals) floats, not O(events)).
        self.cct_samples: list[tuple[float, float]] = []
        self.arrivals = 0
        self.admitted = 0
        self.shed = 0
        self.deferrals = 0
        self.completed = 0
        self.aborted = 0
        m = self.metrics
        self._c_arrivals = m.counter(
            "service_arrivals_total", "coflows offered to the service"
        )
        self._c_admitted = m.counter(
            "service_admitted_total", "coflows admitted into the fabric"
        )
        self._c_deferred = m.counter(
            "service_deferred_total", "deferral rulings (backpressure)"
        )

    # -- ArrivalSource protocol -----------------------------------------
    def next_time(self, now: float) -> float | None:
        times = []
        nxt = self.stream.peek_time()
        if nxt is not None:
            times.append(nxt)
        if self._deferred:
            times.append(self._deferred[0][0])
        return min(times) if times else None

    def take(self, now: float, slack: float) -> list[Coflow]:
        released: list[Coflow] = []
        # Deferred coflows whose wait expired are re-decided first (they
        # have been waiting longest), then fresh arrivals due by now.
        while self._deferred and self._deferred[0][0] <= now + slack:
            _, _, attempt, cf = heapq.heappop(self._deferred)
            self._decide(cf, now, attempt, released)
        while True:
            nxt = self.stream.peek_time()
            if nxt is None or nxt > now + slack:
                break
            cf = self.stream.pop()
            self.arrivals += 1
            self._c_arrivals.inc()
            self._decide(cf, now, 0, released)
        return released

    # -- feedback from the simulator ------------------------------------
    # Both are shaped as the simulator's ``injector`` / ``on_abort``
    # callbacks, ``(cid, time) -> new coflows``; they never add any.
    def record_completion(self, cid: int, time: float) -> list[Coflow]:
        """An admitted coflow finished; update backlog and the CCT window."""
        entry = self._outstanding.pop(cid, None)
        if entry is None:
            return []
        arrival, volume = entry
        self._drop_outstanding(volume)
        cct = time - arrival
        self.completed += 1
        self._ccts.append(float(cct))
        self._cct_version += 1
        self.cct_samples.append((float(time - cct), float(cct)))
        return []

    def record_abort(self, cid: int, time: float) -> list[Coflow]:
        """An admitted coflow was aborted (failure path); drop its bytes."""
        entry = self._outstanding.pop(cid, None)
        if entry is None:
            return []
        self._drop_outstanding(entry[1])
        self.aborted += 1
        return []

    def _drop_outstanding(self, volume: float) -> None:
        # Zero the accumulator whenever the live set empties: add/subtract
        # float error would otherwise drift it away from true zero over a
        # long run (in either direction).
        self._outstanding_bytes -= volume
        if not self._outstanding:
            self._outstanding_bytes = 0.0

    # -- internals -------------------------------------------------------
    @property
    def recent_p95(self) -> float | None:
        """Sliding-window p95 CCT, or None until enough completions."""
        return self.state().recent_p95

    @property
    def backlog_seconds(self) -> float:
        return self.state().backlog_seconds

    def state(self) -> ServiceState:
        """The live signals; a streak of rulings against an unchanged
        system (deferral re-polls) shares one state."""
        key = (self._outstanding_bytes, len(self._deferred), self._cct_version)
        cached = self._state
        if cached is not None and cached[0] == key:
            return cached[1]
        if cached is not None and cached[0][2] == key[2]:
            p95 = cached[1].recent_p95
        elif len(self._ccts) < _MIN_P95_SAMPLES:
            p95 = None
        else:
            p95 = float(np.percentile(np.asarray(self._ccts), 95))
        state = ServiceState(
            outstanding_bytes=key[0],
            capacity=self.capacity,
            queued=key[1],
            recent_p95=p95,
        )
        self._state = (key, state)
        return state

    def _decide(
        self, cf: Coflow, now: float, attempt: int, released: list[Coflow]
    ) -> None:
        decision, reason = self.policy.decide(cf, self.state(), attempt)
        if decision == "admit":
            self.admitted += 1
            self._c_admitted.inc()
            self._outstanding[cf.coflow_id] = (
                cf.arrival_time, cf.total_volume
            )
            self._outstanding_bytes += cf.total_volume
            released.append(cf)
        elif decision == "defer":
            self.deferrals += 1
            self._c_deferred.inc()
            delay = self._defer_delays.get(attempt)
            if delay is None:
                delay = self._defer_delays[attempt] = max(
                    self.policy.defer_delay(attempt), 1e-9
                )
            heapq.heappush(
                self._deferred, (now + delay, self._seq, attempt + 1, cf)
            )
            self._seq += 1
        elif decision == "shed":
            self.shed += 1
            self.metrics.counter(
                "service_shed_total",
                "coflows dropped by the admission policy",
                labels={"reason": reason or "unspecified"},
            ).inc()
        else:
            raise ValueError(
                f"policy {self.policy.name!r} returned invalid decision "
                f"{decision!r}"
            )
        if self.obs is not None:
            self.obs.emit(
                "admission", now,
                decision=decision, cid=int(cf.coflow_id),
                volume=float(cf.total_volume), reason=str(reason),
                policy=str(self.policy.name),
            )
