"""Robustness experiments: disciplines under degradation and node loss.

The paper's long-term goal (§VI) is a system "always highly efficient and
robust in the presence of different workloads and network configurations".
These experiments quantify the network-configuration half:

* :func:`robustness_sweep` -- the same CCF coflow stream executed on a
  healthy fabric, on one where ports degrade mid-run, and under a seeded
  chaos schedule of full port failures (repaired after an MTTR), with the
  failure-log summary surfaced per discipline.
* :func:`recovery_sweep` -- schedulers x recovery policies under a
  deterministic mid-run node loss: how much completion time, lost bytes
  and failed work each *recovery* strategy (abort / retry / replan)
  costs, per scheduling discipline.
"""

from __future__ import annotations

from repro.core.framework import CCF
from repro.experiments.engine import Cell, SweepSpec, rows_to_table
from repro.network.chaos import ChaosConfig, chaos_schedule
from repro.network.dynamics import FabricDynamics
from repro.network.fabric import Fabric
from repro.network.schedulers import make_scheduler
from repro.network.simulator import CoflowSimulator

__all__ = [
    "robustness_sweep",
    "recovery_sweep",
]


def _ccf_coflows(n_nodes: int, scale_factor: float, n_jobs: int,
                 inter_arrival: float):
    from repro.workloads.analytic import AnalyticJoinWorkload

    wl = AnalyticJoinWorkload(
        n_nodes=n_nodes, scale_factor=scale_factor, partitions=4 * n_nodes
    )
    plan = CCF().plan(wl, "ccf")
    coflows = [
        plan.to_coflow(arrival_time=j * inter_arrival) for j in range(n_jobs)
    ]
    return coflows, Fabric(n_ports=n_nodes, rate=plan.model.rate)


def _robustness_cell(
    *,
    scheduler: str,
    n_nodes: int,
    scale_factor: float,
    n_jobs: int,
    inter_arrival: float,
    degrade_ports: list,
    degrade_factor: float,
    degrade_at: float,
    seed: int,
    chaos_mtbf: float,
    chaos_mttr: float,
    chaos_horizon: float,
) -> list:
    """One discipline row: healthy / degraded / chaotic runs of the stream.

    Parameters
    ----------
    scheduler:
        Discipline name (the swept value).
    n_nodes, scale_factor, n_jobs, inter_arrival:
        Workload and stream knobs.
    degrade_ports, degrade_factor, degrade_at:
        Degradation scenario for the middle column.
    seed, chaos_mtbf, chaos_mttr, chaos_horizon:
        Seeded chaos schedule for the last columns.

    Returns
    -------
    list
        ``[scheduler, healthy, degraded, inflation_x, chaos,
        port_failures, reroutes, bytes_lost]`` row.
    """
    coflows, fabric = _ccf_coflows(n_nodes, scale_factor, n_jobs, inter_arrival)
    chaos = chaos_schedule(
        ChaosConfig(
            mtbf=chaos_mtbf, mttr=chaos_mttr, horizon=chaos_horizon, seed=seed
        ),
        fabric,
    )
    healthy = CoflowSimulator(fabric, make_scheduler(scheduler)).run(coflows)
    dyn = FabricDynamics.degrade(
        time=degrade_at,
        ports=list(degrade_ports),
        factor=degrade_factor,
        fabric=fabric,
    )
    degraded = CoflowSimulator(
        fabric, make_scheduler(scheduler), dynamics=dyn
    ).run(coflows)
    chaotic = CoflowSimulator(
        fabric,
        make_scheduler(scheduler),
        dynamics=chaos,
        recovery="replan",
    ).run(coflows)
    summary = chaotic.failure_summary()
    return [
        scheduler,
        healthy.average_cct,
        degraded.average_cct,
        degraded.average_cct / healthy.average_cct
        if healthy.average_cct
        else float("nan"),
        chaotic.average_cct,
        summary["port_failures"],
        summary["reroutes"],
        summary["bytes_lost"],
    ]


def robustness_sweep(
    *,
    n_nodes: int = 16,
    scale_factor: float = 0.4,
    n_jobs: int = 4,
    inter_arrival: float = 1.0,
    degrade_ports: tuple[int, ...] = (0, 1),
    degrade_factor: float = 0.25,
    degrade_at: float = 1.0,
    schedulers: tuple[str, ...] = ("fair", "wss", "sebf", "dclas"),
    seed: int = 0,
    chaos_mtbf: float = 2.0,
    chaos_mttr: float = 2.0,
    chaos_horizon: float = 8.0,
    quick: bool = False,
) -> SweepSpec:
    """CCT inflation per discipline under degradation and port failures.

    The ``seed`` drives the chaos schedule, so equal seeds reproduce the
    exact same fault sequence (and therefore the same table) run-to-run.
    All chaos failures are repaired, and flows are recovered with the
    ``replan`` policy; the failure-log summary columns report how much
    recovery work that took.

    Parameters
    ----------
    n_nodes, scale_factor:
        Workload size knobs.
    n_jobs, inter_arrival:
        Stream shape: job count and arrival spacing in seconds.
    degrade_ports, degrade_factor, degrade_at:
        Which ports degrade, to what fraction of their rate, and when.
    schedulers:
        Disciplines forming the rows.
    seed:
        Chaos-schedule seed.
    chaos_mtbf, chaos_mttr, chaos_horizon:
        Chaos process: mean time between failures / to repair, and the
        injection horizon, all in seconds.
    quick:
        Shrink the workload (8 nodes, SF 0.2, 2 jobs) and drop to two
        disciplines.

    Returns
    -------
    SweepSpec
        One cell per scheduler; the table has one row per discipline
        with healthy / degraded / chaotic CCTs and the chaotic run's
        failure-log summary.
    """
    if quick:
        n_nodes, scale_factor, n_jobs = 8, 0.2, 2
        schedulers = ("fair", "sebf")
    cells = [
        Cell(
            label=f"scheduler={name}",
            params=dict(
                scheduler=name,
                n_nodes=n_nodes,
                scale_factor=scale_factor,
                n_jobs=n_jobs,
                inter_arrival=inter_arrival,
                degrade_ports=list(degrade_ports),
                degrade_factor=degrade_factor,
                degrade_at=degrade_at,
                seed=seed,
                chaos_mtbf=chaos_mtbf,
                chaos_mttr=chaos_mttr,
                chaos_horizon=chaos_horizon,
            ),
        )
        for name in schedulers
    ]
    return SweepSpec(
        name="robustness",
        fn=_robustness_cell,
        cells=cells,
        assemble=rows_to_table(
            "Robustness: average CCT (s) under degradation and node loss",
            [
                "scheduler",
                "healthy",
                "degraded",
                "inflation_x",
                "chaos",
                "port_failures",
                "reroutes",
                "bytes_lost",
            ],
            notes=(
                f"ports {list(degrade_ports)} drop to {degrade_factor:.0%} of "
                f"their rate at t={degrade_at}s; {n_jobs} CCF join coflows in "
                "flight",
                f"chaos column: seeded (seed={seed}) MTBF={chaos_mtbf}s / "
                f"MTTR={chaos_mttr}s full port failures, replan recovery",
            ),
        ),
    )


def _recovery_cell(
    *,
    scheduler: str,
    policy: str,
    n_nodes: int,
    scale_factor: float,
    n_jobs: int,
    inter_arrival: float,
    fail_ports: list,
    fail_at: float,
    recover_at: float,
    fail_direction: str,
) -> list:
    """One (scheduler, policy) pair under the deterministic node loss.

    Parameters
    ----------
    scheduler, policy:
        The swept pair: scheduling discipline and recovery policy.
    n_nodes, scale_factor, n_jobs, inter_arrival:
        Workload and stream knobs.
    fail_ports, fail_at, recover_at, fail_direction:
        The failure scenario.

    Returns
    -------
    list
        ``[scheduler, policy, avg_cct, completed, failed, restarts,
        reroutes, bytes_lost]`` row.
    """
    coflows, fabric = _ccf_coflows(n_nodes, scale_factor, n_jobs, inter_arrival)
    dyn = FabricDynamics.fail(
        time=fail_at,
        ports=list(fail_ports),
        fabric=fabric,
        recover_at=recover_at,
        direction=fail_direction,
    )
    res = CoflowSimulator(
        fabric, make_scheduler(scheduler), dynamics=dyn, recovery=policy
    ).run(coflows)
    summary = res.failure_summary()
    return [
        scheduler,
        policy,
        res.average_cct,
        len(res.ccts),
        len(res.failed_coflows),
        summary["restarts"],
        summary["reroutes"],
        summary["bytes_lost"],
    ]


def recovery_sweep(
    *,
    n_nodes: int = 16,
    scale_factor: float = 0.4,
    n_jobs: int = 4,
    inter_arrival: float = 1.0,
    fail_ports: tuple[int, ...] = (0,),
    fail_at: float = 0.1,
    recover_at: float = 12.0,
    fail_direction: str = "ingress",
    schedulers: tuple[str, ...] = ("fair", "sebf", "dclas"),
    policies: tuple[str, ...] = ("abort", "retry", "replan"),
    quick: bool = False,
) -> SweepSpec:
    """Schedulers x recovery policies under a deterministic node loss.

    One node dies mid-run and comes back much later; each recovery policy
    pays a different price: ``abort`` loses whole coflows, ``retry``
    waits out the downtime and re-sends lost progress, ``replan``
    reassigns the lost chunks to survivors immediately.

    The default ``fail_direction="ingress"`` models a receiver-side loss
    (reducer/storage dies, map outputs stay readable) -- the case where
    replanning chunk placement can actually route around the hole.  With
    ``"both"`` (full node loss) the dead node's *source* data is gone
    too, so every policy must wait for the repair and replan's edge
    shrinks to its rerouted receive side.

    Parameters
    ----------
    n_nodes, scale_factor:
        Workload size knobs.
    n_jobs, inter_arrival:
        Stream shape: job count and arrival spacing in seconds.
    fail_ports, fail_at, recover_at, fail_direction:
        The failure scenario: which ports die, when, when they repair,
        and which side ("ingress"/"egress"/"both") is lost.
    schedulers, policies:
        Disciplines and recovery policies forming the row grid.
    quick:
        Shrink the workload (8 nodes, SF 0.2, 2 jobs) and drop to one
        discipline.

    Returns
    -------
    SweepSpec
        One cell and table row per (scheduler, policy) pair, in
        scheduler-major order.
    """
    if quick:
        n_nodes, scale_factor, n_jobs = 8, 0.2, 2
        schedulers = ("sebf",)
    cells = [
        Cell(
            label=f"scheduler={name} policy={policy}",
            params=dict(
                scheduler=name,
                policy=policy,
                n_nodes=n_nodes,
                scale_factor=scale_factor,
                n_jobs=n_jobs,
                inter_arrival=inter_arrival,
                fail_ports=list(fail_ports),
                fail_at=fail_at,
                recover_at=recover_at,
                fail_direction=fail_direction,
            ),
        )
        for name in schedulers
        for policy in policies
    ]
    return SweepSpec(
        name="recovery",
        fn=_recovery_cell,
        cells=cells,
        assemble=rows_to_table(
            "Failure recovery: cost of node loss per scheduler x policy",
            [
                "scheduler",
                "policy",
                "avg_cct",
                "completed",
                "failed",
                "restarts",
                "reroutes",
                "bytes_lost",
            ],
            notes=(
                f"ports {list(fail_ports)} lose their {fail_direction} side "
                f"at t={fail_at}s and recover at t={recover_at}s; "
                f"{n_jobs} CCF join coflows in flight",
            ),
        ),
    )
