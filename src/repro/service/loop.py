"""The long-running service loop: stream -> admission -> simulator.

:func:`run_service` wires one :class:`~repro.service.arrivals.ArrivalStream`
through an :class:`~repro.service.admission.AdmissionController` into the
fluid simulator and runs the whole thing to drain, watchdogs armed.  The
simulator polls the controller every epoch (the ``source`` hook);
completions and aborts flow back into the controller through the
simulator's ``injector`` / ``on_abort`` callbacks, closing the feedback
loop the ``slo-guard`` policy needs.  Observability stays separate: an
untraced run attaches no instrumentation sink at all.

Optionally a seeded chaos schedule (port MTBF-MTTR failures with a
recovery policy) runs *concurrently* with the arrivals -- the soak
scenario: sustained load while the fabric degrades and heals.

The result is a :class:`ServiceReport`: admission counters, overall and
post-warm-up (steady-state) CCT percentiles, backlog at drain, failure
counts and the SLO verdict.  Everything except ``wall_s`` is a pure
function of the config -- bit-reproducible given the seed.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.seeds import derive_seed
from repro.network.chaos import ChaosConfig, chaos_schedule
from repro.network.fabric import Fabric
from repro.network.schedulers import make_scheduler
from repro.network.simulator import CoflowSimulator, SimulationResult
from repro.obs.instrument import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.stats import steady_state_stats
from repro.service.admission import (
    AdmissionController,
    make_admission_policy,
)
from repro.service.arrivals import (
    ArrivalConfig,
    ArrivalStream,
    expected_coflow_bytes,
    offered_load,
    rate_for_load,
)

__all__ = ["ServiceConfig", "ServiceReport", "run_service"]


@dataclass(frozen=True)
class ServiceConfig:
    """One open-loop service scenario.

    Parameters
    ----------
    arrival:
        The arrival stream (rate, process, size mix, length, seed).
    load:
        Offered utilization target; the port rate is derived from the
        stream's analytic mean so the fabric runs at this fraction of
        capacity (> 1 is overload).  Ignored when ``rate`` is given.
    rate:
        Explicit per-port rate in bytes/s (overrides ``load``).
    scheduler:
        Coflow discipline name (``repro.network.schedulers`` registry).
    policy:
        Admission policy name (``repro.service.admission.POLICIES``).
    policy_params:
        Keyword overrides for the policy's constructor.  Two defaults
        are filled in when absent: ``load-shedding.large_bytes`` becomes
        twice the stream's mean coflow size, and ``slo-guard.budget_s``
        inherits ``slo_p95``.
    slo_p95:
        Steady-state p95 CCT budget in seconds; the report's ``slo_ok``
        verdict (and ``ccf serve``'s exit code) checks against it.
        None disables the check.
    chaos_mtbf / chaos_mttr / min_alive / recovery:
        When ``chaos_mtbf`` is set, a seeded port failure/repair
        schedule (soak mode) runs alongside the arrivals, handled by
        the named recovery policy.
    wall_clock_budget_s / max_epochs:
        Simulator watchdog budgets (stall detection is always on).
    batch_events:
        Forwarded to :class:`~repro.network.simulator.CoflowSimulator`:
        reuse rate allocations across the (frequent) service-mode epochs
        that only poll the arrival source without changing the fleet.
        Default on; results are bit-identical either way.
    window:
        Sliding CCT window length for the ``slo-guard`` signal.
    """

    arrival: ArrivalConfig = field(default_factory=ArrivalConfig)
    load: float = 0.7
    rate: float | None = None
    scheduler: str = "sebf"
    policy: str = "accept-all"
    policy_params: dict[str, Any] = field(default_factory=dict)
    slo_p95: float | None = None
    chaos_mtbf: float | None = None
    chaos_mttr: float = 1.0
    min_alive: int = 2
    recovery: str = "retry"
    wall_clock_budget_s: float | None = None
    max_epochs: int = 50_000_000
    batch_events: bool = True
    window: int = 256

    def __post_init__(self) -> None:
        if self.load <= 0:
            raise ValueError("load must be positive")
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.slo_p95 is not None and self.slo_p95 <= 0:
            raise ValueError("slo_p95 must be positive or None")
        if self.chaos_mtbf is not None and self.chaos_mtbf <= 0:
            raise ValueError("chaos_mtbf must be positive or None")
        if self.chaos_mttr <= 0:
            raise ValueError("chaos_mttr must be positive")

    @property
    def port_rate(self) -> float:
        """The effective per-port rate of the scenario."""
        if self.rate is not None:
            return self.rate
        return rate_for_load(self.arrival, self.load)


@dataclass
class ServiceReport:
    """Outcome of one :func:`run_service` run.

    ``overall`` holds the CCT percentiles of every admitted completion;
    ``steady`` the post-warm-up window (None when too few completions
    to call any window steady).  ``wall_s`` is the only
    non-deterministic field.
    """

    policy: str
    load: float
    arrivals: int
    admitted: int
    shed: int
    deferrals: int
    completed: int
    aborted: int
    overall: dict[str, float]
    steady: dict[str, Any] | None
    backlog_end_s: float
    makespan: float
    n_epochs: int
    port_failures: int
    bytes_lost: float
    slo_p95: float | None
    slo_ok: bool
    wall_s: float

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.arrivals if self.arrivals else 0.0

    @property
    def reported_p95(self) -> float:
        """The p95 the SLO verdict uses: steady-state, else overall."""
        if self.steady is not None:
            return float(self.steady["p95"])
        return float(self.overall["p95"])

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict (``ccf serve --json``)."""
        return {
            "policy": self.policy,
            "load": self.load,
            "arrivals": self.arrivals,
            "admitted": self.admitted,
            "shed": self.shed,
            "shed_fraction": self.shed_fraction,
            "deferrals": self.deferrals,
            "completed": self.completed,
            "aborted": self.aborted,
            "cct_overall": self.overall,
            "cct_steady": self.steady,
            "backlog_end_s": self.backlog_end_s,
            "makespan_s": self.makespan,
            "n_epochs": self.n_epochs,
            "port_failures": self.port_failures,
            "bytes_lost": self.bytes_lost,
            "slo_p95": self.slo_p95,
            "slo_ok": self.slo_ok,
            "wall_s": self.wall_s,
        }


def _policy_with_defaults(config: ServiceConfig) -> dict[str, Any]:
    """Fill in the scenario-dependent policy defaults."""
    params = dict(config.policy_params)
    if config.policy == "load-shedding" and "large_bytes" not in params:
        params["large_bytes"] = 2.0 * expected_coflow_bytes(config.arrival)
    if (
        config.policy == "slo-guard"
        and "budget_s" not in params
        and config.slo_p95 is not None
    ):
        params["budget_s"] = config.slo_p95
    return params


def run_service(
    config: ServiceConfig,
    *,
    instrumentation: Instrumentation | None = None,
) -> tuple[ServiceReport, SimulationResult, AdmissionController]:
    """Run one open-loop scenario to drain and report.

    ``instrumentation`` (e.g. a :class:`~repro.obs.StreamingTracer`)
    receives the full event stream -- simulator lifecycle plus the
    controller's ``admission`` rulings -- and its metrics registry, if
    it has one, collects the ``service_*`` counters.

    Returns ``(report, simulation_result, controller)``; the controller
    is returned for callers (tests, the capacity planner) that want the
    raw counters and CCT samples.
    """
    arrival = config.arrival
    rate = config.port_rate
    fabric = Fabric(n_ports=arrival.n_ports, rate=rate)
    metrics = getattr(instrumentation, "metrics", None) or MetricsRegistry()
    stream = ArrivalStream(arrival)
    policy = make_admission_policy(
        config.policy, **_policy_with_defaults(config)
    )
    controller = AdmissionController(
        stream,
        policy,
        fabric,
        metrics=metrics,
        instrumentation=instrumentation,
        window=config.window,
    )

    dynamics = None
    recovery = None
    if config.chaos_mtbf is not None:
        horizon = arrival.horizon
        if horizon is None:
            # No new failures once the stream should have drained: twice
            # the stream's own expected duration is comfortably past it.
            horizon = 2.0 * arrival.max_arrivals / arrival.arrival_rate
        dynamics = chaos_schedule(
            ChaosConfig(
                mtbf=config.chaos_mtbf,
                mttr=config.chaos_mttr,
                horizon=horizon,
                seed=derive_seed(arrival.seed, "service-chaos"),
                min_alive=config.min_alive,
            ),
            fabric,
        )
        recovery = config.recovery

    sim = CoflowSimulator(
        fabric,
        make_scheduler(config.scheduler),
        dynamics=dynamics,
        recovery=recovery,
        instrumentation=instrumentation,
        max_epochs=config.max_epochs,
        batch_events=config.batch_events,
        wall_clock_budget_s=config.wall_clock_budget_s,
    )
    t0 = _time.monotonic()
    result = sim.run(
        [],
        source=controller,
        injector=controller.record_completion,
        on_abort=controller.record_abort,
    )
    wall = _time.monotonic() - t0

    ccts = [cct for _, cct in controller.cct_samples]
    overall = _percentiles(ccts)
    steady = steady_state_stats(controller.cct_samples)
    p95 = float(steady["p95"]) if steady is not None else overall["p95"]
    slo_ok = config.slo_p95 is None or p95 <= config.slo_p95
    report = ServiceReport(
        policy=config.policy,
        load=(
            config.load
            if config.rate is None
            else offered_load(arrival, config.rate)
        ),
        arrivals=controller.arrivals,
        admitted=controller.admitted,
        shed=controller.shed,
        deferrals=controller.deferrals,
        completed=controller.completed,
        aborted=controller.aborted,
        overall=overall,
        steady=steady,
        backlog_end_s=controller.state(result.makespan).backlog_seconds,
        makespan=result.makespan,
        n_epochs=result.n_epochs,
        port_failures=result.n_port_failures,
        bytes_lost=result.bytes_lost,
        slo_p95=config.slo_p95,
        slo_ok=slo_ok,
        wall_s=wall,
    )
    return report, result, controller


def _percentiles(values: list[float]) -> dict[str, float]:
    if not values:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    arr = np.asarray(values, dtype=float)
    return {
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
        "mean": float(arr.mean()),
        "max": float(arr.max()),
    }
