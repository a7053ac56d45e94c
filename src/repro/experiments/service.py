"""Overload experiment: graceful degradation of the admission policies.

The open-loop service mode (:mod:`repro.service`) promises *graceful
degradation*: past the fabric's capacity an admission policy must trade
work away (shed or defer coflows) to keep the latency of what it admits
within budget, where ``accept-all`` lets the backlog -- and with it p95
CCT -- grow without bound.  This experiment makes that claim a table:
the same seeded arrival stream is played at several offered loads
through each policy, and every cell reports the shed fraction next to
the steady-state p95 against a common SLO budget.

The grid is an ordinary engine sweep (``ccf sweep overload``): cells are
independent pure functions of their parameters, so they parallelize,
cache and resume like any other experiment.

Expected shape (the acceptance demo): at 1.6x capacity ``accept-all``
blows the 60 s budget several times over while ``load-shedding`` and
``slo-guard`` shed 5-25% of arrivals and keep p95 within budget.
"""

from __future__ import annotations

from repro.experiments.engine import Cell, SweepSpec, rows_to_table
from repro.service import ArrivalConfig, ServiceConfig, run_service

__all__ = ["overload_sweep"]

#: The demo's common SLO budget (seconds).  60 s is robust across seeds
#: at the default stream scale: the overloaded accept-all lands at
#: 150-250 s while the shedding policies stay in the 20-50 s range.
DEFAULT_SLO_S = 60.0

#: Offered-load grid: healthy, at the knee, and well past capacity.
DEFAULT_LOADS = (0.7, 1.1, 1.6)

#: Policy order for the table (the paper-style "columns").
DEFAULT_POLICIES = (
    "accept-all",
    "bounded-queue",
    "load-shedding",
    "slo-guard",
)


def _overload_cell(
    *,
    policy: str,
    load: float,
    arrivals: int,
    users: int,
    qps_per_user: float,
    n_ports: int,
    seed: int,
    slo: float,
) -> list:
    """One (policy, load) cell: run the scenario, return a table row.

    Module-level (not a closure) so sweep workers can pickle it.
    """
    config = ServiceConfig(
        arrival=ArrivalConfig(
            n_ports=n_ports,
            users=users,
            qps_per_user=qps_per_user,
            max_arrivals=arrivals,
            seed=seed,
        ),
        load=load,
        policy=policy,
        slo_p95=slo,
    )
    report, _, _ = run_service(config)
    return [
        policy,
        load,
        report.arrivals,
        report.admitted,
        report.shed,
        round(report.shed_fraction, 4),
        report.deferrals,
        round(report.reported_p95, 3),
        round(report.overall["p99"], 3),
        round(report.backlog_end_s, 3),
        "yes" if report.slo_ok else "NO",
    ]


def overload_sweep(
    *,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    arrivals: int = 400,
    users: int = 20,
    qps_per_user: float = 0.1,
    n_ports: int = 24,
    seed: int = 7,
    slo: float = DEFAULT_SLO_S,
    quick: bool = False,
) -> SweepSpec:
    """The overload grid: loads x policies, one service run per cell.

    Parameters
    ----------
    loads:
        Offered utilizations to play the stream at (> 1 is overload).
    policies:
        Admission policies to compare at every load.
    arrivals, users, qps_per_user, n_ports, seed:
        Stream shape; each cell replays the *same* seeded arrivals, so
        differences down a column are purely the policy's doing.
    slo:
        Common p95 budget the ``slo_ok`` verdict checks.
    quick:
        Shrink to 150 arrivals and the two extreme loads -- the CI
        smoke grid; still covers every policy.

    Returns
    -------
    SweepSpec
        One cell per (load, policy) pair.
    """
    if quick:
        arrivals = 150
        loads = (loads[0], loads[-1]) if len(loads) > 1 else loads
    cells = [
        Cell(
            label=f"load={load:g},policy={policy}",
            params=dict(
                policy=policy,
                load=load,
                arrivals=arrivals,
                users=users,
                qps_per_user=qps_per_user,
                n_ports=n_ports,
                seed=seed,
                slo=slo,
            ),
        )
        for load in loads
        for policy in policies
    ]
    return SweepSpec(
        name="overload",
        fn=_overload_cell,
        cells=cells,
        assemble=rows_to_table(
            "Overload: admission policies vs offered load "
            f"(p95 budget {slo:g} s)",
            [
                "policy",
                "load",
                "arrivals",
                "admitted",
                "shed",
                "shed_frac",
                "deferrals",
                "p95_s",
                "p99_s",
                "backlog_end_s",
                "slo_ok",
            ],
            notes=(
                "every cell replays the same seeded arrival stream; the "
                "port rate is derived so the stream offers 'load' x "
                "fabric capacity (load > 1 = overload)",
                "p95_s is the steady-state (post-warm-up) percentile "
                "when a steady window exists, overall otherwise",
                "graceful degradation: past capacity, shedding policies "
                "keep p95 within budget by trading arrivals away; "
                "accept-all admits everything and lets latency collapse",
            ),
        ),
    )
