"""Chaos campaign: named fault scenarios scored for resilience.

PRs 1-5 grew three independent fault surfaces: the *simulated* fabric
can fail (``repro.network.chaos``), the *planner's inputs* can be wrong
(``repro.core.noise``), and -- since the supervised execution layer --
the *platform* itself can hurt (worker kills, cache corruption, cell
timeouts).  This module composes all three into a declarative fault
matrix: each :class:`ChaosScenario` names a combination, every scenario
runs as one cell of an ordinary engine sweep (so platform faults
exercise the engine's own retry / rebuild / quarantine machinery), and
the campaign is scored on

* **completion under faults** -- did every coflow of every scenario
  still finish;
* **degradation ratio** -- faulty average CCT over the scenario's own
  fault-free CCT;
* **recovery cost** -- extra simulated seconds to drain the same stream
  (``slowdown_s``);
* **supervision spend** -- retries, timeouts, worker crashes, pool
  rebuilds and quarantined cache entries consumed platform-wide.

Platform faults are keyed on the ``CCF_CHAOS_FAULT_DIR`` environment
variable (marker files under it make each fault one-shot) instead of on
cell parameters: platform faults must not change results, so they must
not change cache identity either.  Simulated-world knobs (fabric chaos,
estimate noise) *do* change results and are ordinary cell parameters.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.resilience import Backoff
from repro.experiments.engine import (
    Cell,
    CellCache,
    SweepOutcome,
    SweepSpec,
    cell_key,
    derive_seed,
    rows_to_table,
    run_sweep,
)
from repro.experiments.tables import ResultTable

__all__ = [
    "ChaosScenario",
    "SCENARIOS",
    "CampaignOutcome",
    "campaign_sweep",
    "run_campaign",
]

#: Environment variable holding the marker directory for platform faults.
#: Unset (or empty) disables worker kills and injected timeouts entirely,
#: which is what ``ccf run chaos`` and serial library use get.
FAULT_DIR_ENV = "CCF_CHAOS_FAULT_DIR"

#: How long an injected-timeout cell sleeps.  Always far above any sane
#: ``cell_timeout_s``, so the sleep is ended by SIGALRM, not by waking.
_INJECTED_SLEEP_S = 60.0


@dataclass(frozen=True)
class ChaosScenario:
    """One named cell of the fault matrix.

    Parameters
    ----------
    name:
        Scenario identifier (also the sweep-cell label).
    description:
        One line for reports and ``ccf chaos --list``.
    chaos_mtbf, chaos_mttr:
        Fabric chaos: mean time between seeded full-port failures and
        mean time to repair, in simulated seconds.  ``chaos_mtbf=None``
        keeps the fabric healthy.
    noise:
        Lognormal sigma of :class:`repro.core.noise.NoisyEstimates`
        degrading the scheduler's size estimates; 0 disables.
    kill_worker:
        Kill the hosting worker process (SIGKILL) once -- exercises pool
        rebuild + re-dispatch.  Only fires inside pool workers and only
        when the fault directory is armed.
    corrupt_cache:
        Pre-corrupt this scenario's cache entry before the sweep --
        exercises checksum quarantine.  Needs a cache to corrupt.
    inject_timeout:
        Sleep past the per-cell timeout once -- exercises
        :class:`~repro.core.resilience.CellTimeout` + retry.
    """

    name: str
    description: str
    chaos_mtbf: float | None = None
    chaos_mttr: float = 1.5
    noise: float = 0.0
    kill_worker: bool = False
    corrupt_cache: bool = False
    inject_timeout: bool = False


#: The campaign's fault matrix, in report order.
SCENARIOS: dict[str, ChaosScenario] = {
    s.name: s
    for s in (
        ChaosScenario(
            "baseline",
            "no faults anywhere (control row: degradation must be 1.0)",
        ),
        ChaosScenario(
            "fabric-chaos",
            "seeded full-port failures with replan recovery",
            chaos_mtbf=1.0,
            chaos_mttr=1.0,
        ),
        ChaosScenario(
            "noisy-estimates",
            "scheduler plans against lognormal-noisy size estimates",
            noise=0.4,
        ),
        ChaosScenario(
            "worker-crash",
            "the sweep worker running this scenario is SIGKILLed once",
            kill_worker=True,
        ),
        ChaosScenario(
            "cache-corruption",
            "this scenario's cache entry is corrupted before the run",
            corrupt_cache=True,
        ),
        ChaosScenario(
            "cell-timeout",
            "this scenario's cell overruns its timeout once",
            inject_timeout=True,
        ),
        ChaosScenario(
            "kitchen-sink",
            "fabric chaos + noisy estimates + kill + corruption + timeout",
            chaos_mtbf=1.0,
            chaos_mttr=1.0,
            noise=0.4,
            kill_worker=True,
            corrupt_cache=True,
            inject_timeout=True,
        ),
    )
}


def _inject_platform_faults(scenario: ChaosScenario) -> None:
    """Fire the scenario's one-shot platform faults, if armed.

    Marker files make each fault fire exactly once per fault directory,
    so the retried / re-dispatched attempt succeeds.  Nothing here may
    influence the returned row -- that is what keeps fault-injected
    campaigns bit-identical to clean ones.
    """
    fault_dir = os.environ.get(FAULT_DIR_ENV, "")
    if not fault_dir:
        return
    if scenario.kill_worker and multiprocessing.parent_process() is not None:
        marker = os.path.join(fault_dir, f"kill-{scenario.name}")
        if not os.path.exists(marker):
            with open(marker, "w") as fh:
                fh.write("worker killed by chaos campaign\n")
            os.kill(os.getpid(), signal.SIGKILL)
    if scenario.inject_timeout:
        marker = os.path.join(fault_dir, f"slow-{scenario.name}")
        if not os.path.exists(marker):
            with open(marker, "w") as fh:
                fh.write("cell timeout injected by chaos campaign\n")
            time.sleep(_INJECTED_SLEEP_S)


def _campaign_cell(
    *,
    scenario: str,
    n_nodes: int,
    scale_factor: float,
    n_jobs: int,
    inter_arrival: float,
    seed: int,
    chaos_mtbf: float | None,
    chaos_mttr: float,
    noise: float,
) -> list:
    """One scenario: the CCF stream fault-free, then under its faults.

    Parameters
    ----------
    scenario:
        Key of :data:`SCENARIOS` (platform-fault flags are looked up
        here; they are not cell parameters on purpose -- see the module
        docstring).
    n_nodes, scale_factor, n_jobs, inter_arrival:
        Workload and stream knobs (shared by every scenario).
    seed:
        Base seed; the chaos schedule and noise stream are derived from
        it per scenario, so rows are reproducible cell-by-cell.
    chaos_mtbf, chaos_mttr, noise:
        The scenario's simulated-world faults (duplicated into params so
        the cache key honestly reflects everything that shapes the row).

    Returns
    -------
    list
        ``[scenario, completed, jobs, clean_cct, faulty_cct,
        degradation_x, slowdown_s, port_failures, reroutes,
        bytes_lost]`` row.
    """
    from repro.core.noise import NoisyEstimates
    from repro.experiments.robustness import _ccf_coflows
    from repro.network.chaos import ChaosConfig, chaos_schedule
    from repro.network.schedulers import make_scheduler
    from repro.network.simulator import CoflowSimulator

    spec = SCENARIOS[scenario]
    _inject_platform_faults(spec)

    coflows, fabric = _ccf_coflows(
        n_nodes, scale_factor, n_jobs, inter_arrival
    )
    clean = CoflowSimulator(fabric, make_scheduler("sebf")).run(coflows)

    dynamics = None
    if chaos_mtbf is not None:
        dynamics = chaos_schedule(
            ChaosConfig(
                mtbf=chaos_mtbf,
                mttr=chaos_mttr,
                horizon=max(2.0 * clean.makespan, 4.0),
                seed=derive_seed(seed, "chaos", scenario),
            ),
            fabric,
        )
    estimate_noise = None
    if noise > 0.0:
        estimate_noise = NoisyEstimates(
            sigma=noise, seed=derive_seed(seed, "noise", scenario)
        )
    faulty = CoflowSimulator(
        fabric,
        make_scheduler("sebf"),
        dynamics=dynamics,
        recovery="replan" if dynamics is not None else None,
        estimate_noise=estimate_noise,
    ).run(coflows)
    summary = faulty.failure_summary()
    clean_cct = clean.average_cct
    faulty_cct = faulty.average_cct
    return [
        scenario,
        len(faulty.ccts),
        n_jobs,
        clean_cct,
        faulty_cct,
        faulty_cct / clean_cct if clean_cct else float("nan"),
        faulty.makespan - clean.makespan,
        summary["port_failures"],
        summary["reroutes"],
        summary["bytes_lost"],
    ]


def campaign_sweep(
    *,
    n_nodes: int = 12,
    scale_factor: float = 0.3,
    n_jobs: int = 3,
    inter_arrival: float = 1.0,
    seed: int = 0,
    scenarios: tuple[str, ...] | None = None,
    quick: bool = False,
) -> SweepSpec:
    """The chaos campaign as an engine grid (one cell per scenario).

    ``ccf run chaos`` runs this grid in-process with no cache, so
    platform faults stay dormant (nothing to kill, corrupt or time out);
    the fabric-chaos and noisy-estimates scenarios still bite.  Use
    ``ccf chaos`` (:func:`run_campaign`) for the full supervised
    campaign.

    Parameters
    ----------
    n_nodes, scale_factor, n_jobs, inter_arrival:
        Workload and stream knobs.
    seed:
        Base seed for chaos schedules and noise streams.
    scenarios:
        Scenario names to run (default: all of :data:`SCENARIOS`, in
        declaration order).
    quick:
        Shrink the workload (8 nodes, SF 0.2, 2 jobs); the scenario set
        stays complete -- a quick campaign still exercises every fault.

    Returns
    -------
    SweepSpec
        One cell per scenario.
    """
    if quick:
        n_nodes, scale_factor, n_jobs = 8, 0.2, 2
    names = scenarios if scenarios is not None else tuple(SCENARIOS)
    unknown = [s for s in names if s not in SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown chaos scenarios {unknown}; choose from {list(SCENARIOS)}"
        )
    cells = [
        Cell(
            label=f"scenario={name}",
            params=dict(
                scenario=name,
                n_nodes=n_nodes,
                scale_factor=scale_factor,
                n_jobs=n_jobs,
                inter_arrival=inter_arrival,
                seed=seed,
                chaos_mtbf=SCENARIOS[name].chaos_mtbf,
                chaos_mttr=SCENARIOS[name].chaos_mttr,
                noise=SCENARIOS[name].noise,
            ),
        )
        for name in names
    ]
    return SweepSpec(
        name="chaos",
        fn=_campaign_cell,
        cells=cells,
        assemble=rows_to_table(
            "Chaos campaign: CCT degradation and recovery per scenario",
            [
                "scenario",
                "completed",
                "jobs",
                "clean_cct",
                "faulty_cct",
                "degradation_x",
                "slowdown_s",
                "port_failures",
                "reroutes",
                "bytes_lost",
            ],
            notes=(
                "each scenario simulates the same CCF join stream "
                "fault-free, then under its declared faults (sebf, "
                "replan recovery when the fabric misbehaves)",
                "platform faults (worker kill / cache corruption / cell "
                "timeout) attack the sweep machinery, not the "
                "simulation: they must leave every row unchanged",
            ),
        ),
    )


@dataclass
class CampaignOutcome:
    """A scored chaos campaign.

    Parameters
    ----------
    table:
        Per-scenario results (the sweep's assembled table).
    resilience:
        Campaign-level scorecard: completion, worst degradation, total
        recovery cost and the supervision counters consumed.
    outcome:
        The underlying engine :class:`SweepOutcome`.
    """

    table: ResultTable
    resilience: ResultTable
    outcome: SweepOutcome

    @property
    def completed(self) -> bool:
        """True when every coflow of every scenario finished."""
        return all(row[1] == row[2] for row in self.table.rows)


def _score(table: ResultTable, outcome: SweepOutcome) -> ResultTable:
    ratios = [
        row[5] for row in table.rows if isinstance(row[5], float)
    ]
    card = ResultTable(
        title="Chaos campaign: resilience scorecard",
        columns=["metric", "value"],
    )
    card.add_row("scenarios", len(table.rows))
    card.add_row(
        "coflows completed",
        f"{sum(row[1] for row in table.rows)}"
        f"/{sum(row[2] for row in table.rows)}",
    )
    card.add_row(
        "completed under faults",
        "yes" if all(row[1] == row[2] for row in table.rows) else "NO",
    )
    if ratios:
        card.add_row("worst degradation_x", max(ratios))
    card.add_row(
        "total slowdown_s", sum(row[6] for row in table.rows)
    )
    card.add_row("cache hits", outcome.hits)
    card.add_row("retries consumed", outcome.retries)
    card.add_row("cell timeouts", outcome.timeouts)
    card.add_row("worker crashes", outcome.worker_crashes)
    card.add_row("pool rebuilds", outcome.pool_rebuilds)
    card.add_row("cache entries quarantined", outcome.quarantined)
    card.add_row("wall s", round(outcome.elapsed_seconds, 2))
    card.add_note(
        "supervision counters are campaign-wide: they count what the "
        "sweep engine absorbed, which never changes the rows above"
    )
    return card


def run_campaign(
    *,
    quick: bool = False,
    jobs: int = 2,
    cache: CellCache | None = None,
    fault_dir: str | None = None,
    seed: int = 0,
    scenarios: tuple[str, ...] | None = None,
    retry: Backoff | None = None,
    cell_timeout_s: float | None = None,
    progress: Callable[[str], None] | None = None,
    metrics: Any = None,
    instrumentation: Any = None,
) -> CampaignOutcome:
    """Run and score the chaos campaign.

    Parameters
    ----------
    quick:
        Shrink the workload; the scenario set stays complete.
    jobs:
        Sweep workers.  Worker-kill scenarios need ``jobs >= 2`` (and an
        armed ``fault_dir``) to actually crash anything: in serial mode
        the kill guard refuses to shoot the calling process.
    cache:
        Cell cache; required for cache-corruption scenarios to have
        something to corrupt (they are skipped otherwise).
    fault_dir:
        Directory for one-shot fault markers.  Arms worker kills and
        injected timeouts (exported as ``CCF_CHAOS_FAULT_DIR`` for the
        workers).  None leaves platform faults dormant.
    seed:
        Base seed for chaos schedules, noise streams and retry jitter.
    scenarios:
        Scenario subset (default all).
    retry:
        Retry policy; defaults to 3 attempts with deterministic jitter
        seeded from ``seed``.
    cell_timeout_s:
        Per-cell timeout; defaults to 30s (5s under ``quick``) -- far
        above real cell runtimes, far below the injected sleep.
    progress, metrics, instrumentation:
        Forwarded to :func:`repro.experiments.engine.run_sweep`.

    Returns
    -------
    CampaignOutcome
        Scenario table, resilience scorecard and engine outcome.
    """
    spec = campaign_sweep(quick=quick, seed=seed, scenarios=scenarios)
    if retry is None:
        retry = Backoff(
            max_attempts=3,
            base_delay=0.2,
            max_delay=2.0,
            jitter=0.1,
            seed=derive_seed(seed, "chaos-backoff"),
        )
    if cell_timeout_s is None:
        cell_timeout_s = 5.0 if quick else 30.0

    if cache is not None:
        for cell in spec.cells:
            if SCENARIOS[cell.params["scenario"]].corrupt_cache:
                path = cache.path(cell_key(spec, cell))
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text('{"experiment": "chaos", "result": [truncated')

    previous = os.environ.get(FAULT_DIR_ENV)
    if fault_dir is not None:
        os.makedirs(fault_dir, exist_ok=True)
        os.environ[FAULT_DIR_ENV] = str(fault_dir)
    try:
        outcome = run_sweep(
            spec,
            jobs=jobs,
            cache=cache,
            retry=retry,
            cell_timeout_s=cell_timeout_s,
            progress=progress,
            metrics=metrics,
            instrumentation=instrumentation,
        )
    finally:
        if fault_dir is not None:
            if previous is None:
                os.environ.pop(FAULT_DIR_ENV, None)
            else:
                os.environ[FAULT_DIR_ENV] = previous
    return CampaignOutcome(
        table=outcome.table,
        resilience=_score(outcome.table, outcome),
        outcome=outcome,
    )
