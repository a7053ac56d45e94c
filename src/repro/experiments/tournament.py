"""The scheduler tournament: rank every discipline on weighted CCT.

Reproduces the experimental-analysis methodology of Qiu, Stein & Zhong
(arXiv:1603.07981): run every registered scheduling discipline over a
grid of workload families x weight distributions, and report each run's
*optimality gap* -- achieved total weighted completion time divided by
the interval-indexed LP lower bound from :mod:`repro.network.bounds`.
A gap of 1.00 is provably optimal; the proven worst-case ratios (5 for
``wcct5``, 67/3 for ``lpcct``) are ceilings the empirical gaps stay far
below.

The grid is declared as a :class:`~repro.experiments.engine.SweepSpec`,
so ``ccf sweep tournament`` gets parallelism, retries and the
content-addressed cell cache for free; ``ccf tournament`` runs the same
grid and folds it into a ranked scorecard (one row per scheduler,
ordered by mean gap).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.experiments.engine import (
    Cell,
    SweepSpec,
    derive_seed,
    rows_to_table,
)
from repro.experiments.tables import ResultTable
from repro.network.bounds import weighted_cct_lower_bound
from repro.network.fabric import Fabric
from repro.network.flow import Coflow, Flow
from repro.network.schedulers import SCHEDULER_NAMES, make_scheduler
from repro.network.simulator import CoflowSimulator
from repro.workloads.coflowmix import CoflowMixConfig, generate_coflow_mix

__all__ = [
    "tournament_sweep",
    "scorecard",
    "WORKLOAD_FAMILIES",
    "WEIGHT_DISTRIBUTIONS",
]

#: Workload families the tournament draws from.
WORKLOAD_FAMILIES = ("facebook", "uniform", "wide")

#: Coflow weight distributions layered over each family.
WEIGHT_DISTRIBUTIONS = ("unit", "zipf", "classes")

#: Proven approximation ratios -- tournament gaps must never exceed them.
PROVEN_RATIOS = {"wcct5": 5.0, "lpcct": 67.0 / 3.0}

_RATE = 128e6  # CoflowSim's 1 Gbps default, as elsewhere in the repo.


def _make_coflows(
    family: str, n_ports: int, n_coflows: int, seed: int
) -> list[Coflow]:
    """Draw one workload family deterministically from ``seed``."""
    if family == "facebook":
        return generate_coflow_mix(
            CoflowMixConfig(
                n_ports=n_ports,
                n_coflows=n_coflows,
                arrival_rate=2.0,
                seed=seed,
            )
        )
    rng = np.random.default_rng(seed)
    if family == "uniform":
        widths = rng.integers(1, 5, size=n_coflows)
        volume = lambda: float(rng.uniform(1e6, 50e6))  # noqa: E731
    elif family == "wide":
        widths = rng.integers(
            max(2, n_ports // 2), n_ports + 1, size=n_coflows
        )
        volume = lambda: float(rng.uniform(1e6, 20e6))  # noqa: E731
    else:
        raise ValueError(
            f"unknown workload family {family!r}; "
            f"choose from {WORKLOAD_FAMILIES}"
        )
    arrivals = np.cumsum(rng.exponential(0.5, size=n_coflows))
    coflows = []
    for k in range(n_coflows):
        flows = {}
        for _ in range(int(widths[k])):
            s, d = rng.choice(n_ports, size=2, replace=False)
            flows[(int(s), int(d))] = flows.get((int(s), int(d)), 0.0) + volume()
        coflows.append(
            Coflow(
                flows=[Flow(s, d, v) for (s, d), v in sorted(flows.items())],
                arrival_time=float(arrivals[k]),
                coflow_id=k,
            )
        )
    return coflows


def _assign_weights(
    coflows: list[Coflow], distribution: str, seed: int
) -> list[Coflow]:
    """Rebuild the coflows with weights drawn from ``distribution``."""
    rng = np.random.default_rng(seed)
    if distribution == "unit":
        weights = np.ones(len(coflows))
    elif distribution == "zipf":
        # Heavy-tailed integer weights, capped so one coflow cannot
        # dominate the whole objective.
        weights = np.minimum(rng.zipf(2.0, size=len(coflows)), 64).astype(float)
    elif distribution == "classes":
        # Two service classes: ~20% "interactive" coflows at weight 4.
        weights = np.where(rng.random(len(coflows)) < 0.2, 4.0, 1.0)
    else:
        raise ValueError(
            f"unknown weight distribution {distribution!r}; "
            f"choose from {WEIGHT_DISTRIBUTIONS}"
        )
    return [
        Coflow(
            flows=list(c.flows),
            arrival_time=c.arrival_time,
            coflow_id=c.coflow_id,
            name=c.name,
            deadline=c.deadline,
            weight=float(w),
        )
        for c, w in zip(coflows, weights)
    ]


def _tournament_cell(
    *,
    scheduler: str,
    family: str,
    weights: str,
    n_ports: int,
    n_coflows: int,
    seed: int,
) -> list:
    """One grid cell: one scheduler on one weighted workload.

    Returns
    -------
    list
        ``[scheduler, family, weights, weighted_avg_cct_s,
        weighted_completion_s, lp_bound_s, gap]`` row.  ``gap`` is the
        achieved total weighted completion time over the LP lower
        bound (>= 1.0).
    """
    coflows = _assign_weights(
        _make_coflows(family, n_ports, n_coflows, seed),
        weights,
        derive_seed(seed, "weights", weights),
    )
    fabric = Fabric(n_ports=n_ports, rate=_RATE)
    sim = CoflowSimulator(fabric, make_scheduler(scheduler))
    res = sim.run(coflows)
    achieved = sum(
        c.weight * res.completion_times[c.coflow_id] for c in coflows
    )
    w_total = sum(c.weight for c in coflows)
    w_cct = sum(c.weight * res.ccts[c.coflow_id] for c in coflows)
    bound = weighted_cct_lower_bound(coflows, fabric)
    return [
        scheduler,
        family,
        weights,
        w_cct / w_total,
        achieved,
        bound.lower_bound,
        bound.gap(achieved),
    ]


def tournament_sweep(
    *,
    n_ports: int = 24,
    n_coflows: int = 40,
    seed: int = 0,
    schedulers: Sequence[str] = SCHEDULER_NAMES,
    families: Sequence[str] = WORKLOAD_FAMILIES,
    weight_distributions: Sequence[str] = WEIGHT_DISTRIBUTIONS,
    quick: bool = False,
) -> SweepSpec:
    """The tournament grid as an engine sweep.

    Its table is the raw (unranked) grid that ``ccf run tournament``
    prints; ``ccf tournament`` runs the same sweep and additionally
    folds it into :func:`scorecard`.

    Parameters
    ----------
    n_ports, n_coflows, seed:
        Instance shape and base seed (each family/weights pair derives
        its own stream deterministically).
    schedulers, families, weight_distributions:
        Grid axes; defaults cover every registered discipline.
    quick:
        Shrink to a 10-port, 10-coflow, facebook-only grid for smoke
        runs -- still every scheduler and two weight distributions.

    Returns
    -------
    SweepSpec
        One cell per (scheduler, family, weights) triple.
    """
    if quick:
        n_ports, n_coflows = 10, 10
        families = ("facebook",)
        weight_distributions = ("unit", "zipf")
    cells = [
        Cell(
            label=f"sched={s} family={f} weights={w}",
            params=dict(
                scheduler=s,
                family=f,
                weights=w,
                n_ports=n_ports,
                n_coflows=n_coflows,
                seed=derive_seed(seed, "tournament", f),
            ),
        )
        for f in families
        for w in weight_distributions
        for s in schedulers
    ]
    return SweepSpec(
        name="tournament",
        fn=_tournament_cell,
        cells=cells,
        assemble=rows_to_table(
            "Scheduler tournament: weighted CCT vs the LP lower bound",
            [
                "scheduler",
                "family",
                "weights",
                "w_avg_cct_s",
                "w_completion_s",
                "lp_bound_s",
                "gap",
            ],
            notes=(
                "gap = achieved sum(w*C) / interval-indexed LP lower bound "
                "(1.0 = provably optimal)",
                "proven ceilings: wcct5 <= 5x, lpcct <= 67/3x "
                "(Shafiee-Ghaderi; Qiu/Stein/Zhong)",
            ),
        ),
    )


def scorecard(grid: ResultTable) -> ResultTable:
    """Fold the tournament grid into a ranked per-scheduler scorecard.

    Rankings are by mean optimality gap across the grid (lower is
    better); ``wins`` counts the instances where the scheduler achieved
    the lowest weighted completion time (ties award every scheduler
    sharing the minimum).
    """
    schedulers = sorted(set(grid.column("scheduler")))
    instances: dict[tuple[str, str], dict[str, float]] = {}
    gaps: dict[str, list[float]] = {s: [] for s in schedulers}
    for row in grid.rows:
        sched, family, weights = row[0], row[1], row[2]
        achieved, gap = float(row[4]), float(row[6])
        gaps[sched].append(gap)
        instances.setdefault((family, weights), {})[sched] = achieved
    wins = {s: 0 for s in schedulers}
    for per_sched in instances.values():
        best = min(per_sched.values())
        for s, achieved in per_sched.items():
            if achieved <= best * (1 + 1e-9):
                wins[s] += 1
    table = ResultTable(
        "Tournament scorecard: schedulers ranked by mean optimality gap",
        ["rank", "scheduler", "mean_gap", "max_gap", "wins", "instances"],
    )
    ranked = sorted(
        schedulers, key=lambda s: (float(np.mean(gaps[s])), s)
    )
    for rank, s in enumerate(ranked, start=1):
        table.add_row(
            rank,
            s,
            float(np.mean(gaps[s])),
            float(np.max(gaps[s])),
            wins[s],
            len(gaps[s]),
        )
    table.add_note(
        "gap = sum(w*C) / LP lower bound; 1.0 means provably optimal"
    )
    return table
