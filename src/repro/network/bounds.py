"""Lower bounds on the weighted coflow completion-time objective.

The tournament experiment and the LP-ordering scheduler both need a
ground-truth reference: how far is a schedule from optimal?  Exact optima
are out of reach (coflow scheduling is NP-hard even on a single switch,
via concurrent open shop), but the *interval-indexed LP relaxation* of
Qiu, Stein & Zhong (SPAA'15; experimental-analysis follow-up
arXiv:1603.07981) gives a polynomial-size linear program whose optimum is
a certified lower bound on ``sum_k w_k * C_k`` -- the total weighted
completion time -- for *every* feasible schedule.  Reporting each
scheduler's achieved objective divided by this bound yields an
*optimality gap* that is always >= 1 and usually far below the proven
worst-case ratios.

Formulation
-----------
Time is split into geometrically growing intervals ``(tau_{l-1}, tau_l]``
with ``tau_l = tau_0 * growth**l``.  Binary-relaxed variables
``x[k, l] in [0, 1]`` say "coflow ``k`` completes in interval ``l``":

* assignment: ``sum_l x[k, l] == 1`` for every coflow ``k``;
* port capacity: for every port/direction ``p`` and interval ``l``, the
  load of coflows completing by ``tau_l`` fits in the capacity available
  up to ``tau_l``: ``sum_k load_p(k) * sum_{l' <= l} x[k, l'] <=
  rate_p * tau_l``;
* release: ``x[k, l] = 0`` whenever ``tau_l < r_k + Gamma_k`` (a coflow
  cannot complete before its release time plus its isolation bottleneck).

The objective charges ``c[k, l] = max(tau_{l-1}, r_k + Gamma_k)`` when
coflow ``k`` completes in interval ``l``; any feasible schedule induces a
feasible 0/1 assignment whose LP cost is at most its true weighted
completion time, so the LP optimum is a valid lower bound.  Smaller
``growth`` factors tighten the bound at the cost of more intervals.

The LP is assembled sparsely and handed to ``scipy.optimize.linprog``
(method ``highs``), the same solver machinery :mod:`repro.core.relax`
uses for the planner's relaxation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.checks import finite_entries, in_range
from repro.network.fabric import Fabric
from repro.network.flow import Coflow

__all__ = [
    "IntervalLPSolution",
    "WeightedCCTBound",
    "interval_indexed_lp",
    "weighted_cct_lower_bound",
]

#: Default geometric growth factor between consecutive interval endpoints.
DEFAULT_GROWTH: float = 2.0


@dataclass(frozen=True)
class IntervalLPSolution:
    """Solution of the interval-indexed LP over a raw load matrix.

    Attributes
    ----------
    objective:
        LP optimum: a lower bound on ``sum_k w_k * C_k``.
    completion_times:
        Fractional LP completion time per coflow, ``sum_l c[k,l] x[k,l]``.
        Ordering coflows by this value is the Qiu/Stein/Zhong scheduling
        rule.
    n_intervals:
        Number of geometric intervals the LP used.
    """

    objective: float
    completion_times: np.ndarray
    n_intervals: int


@dataclass(frozen=True)
class WeightedCCTBound:
    """Certified lower bound on an instance's weighted completion time.

    Attributes
    ----------
    lower_bound:
        The LP optimum: no feasible schedule achieves a smaller
        ``sum_k w_k * C_k`` (absolute completion times).
    isolation_bound:
        The trivial bound ``sum_k w_k * (r_k + Gamma_k)``; the LP bound
        always dominates it.
    lp_completion_times:
        Fractional LP completion time per coflow, keyed by ``coflow_id``.
    n_intervals:
        Number of geometric intervals in the LP.
    """

    lower_bound: float
    isolation_bound: float
    lp_completion_times: dict[int, float]
    n_intervals: int

    def gap(self, achieved: float) -> float:
        """Optimality gap ``achieved / lower_bound`` (>= 1 up to fp noise)."""
        if self.lower_bound <= 0:
            return 1.0
        return float(achieved) / self.lower_bound


def _smith_ratio_times(
    loads: np.ndarray, releases: np.ndarray, rates: np.ndarray
) -> np.ndarray:
    """Deterministic fallback ordering key if the LP solver fails.

    Orders by the weighted-bottleneck Smith ratio surrogate
    ``r_k + Gamma_k`` (isolation completion), which every caller already
    has; used only when ``linprog`` reports no solution.
    """
    gamma = (loads / rates[None, :]).max(axis=1)
    return releases + gamma


def interval_indexed_lp(
    loads: np.ndarray,
    weights: Sequence[float] | np.ndarray,
    releases: Sequence[float] | np.ndarray,
    rates: np.ndarray,
    *,
    growth: float = DEFAULT_GROWTH,
    charge: str = "bound",
) -> IntervalLPSolution:
    """Solve the interval-indexed LP over raw per-port load vectors.

    Parameters
    ----------
    loads:
        ``(K, P)`` array: bytes coflow ``k`` must push through port
        resource ``p``.  Callers concatenate egress and ingress loads so
        ``P = 2 * n_ports``.
    weights:
        ``(K,)`` positive weights.
    releases:
        ``(K,)`` release (arrival) times in seconds.
    rates:
        ``(P,)`` strictly positive port capacities in bytes/second.
    growth:
        Geometric factor between interval endpoints (> 1).  Smaller is
        tighter but builds more constraint rows.
    charge:
        Which per-interval completion charge the objective uses.

        * ``"bound"`` (default): ``c[k, l] = max(tau_{l-1}, r_k +
          Gamma_k)`` -- the tightest charge that stays a valid lower
          bound.  Because consecutive early intervals of one coflow can
          carry the *same* charge, the optimum may be indifferent to
          which of them a coflow lands in; fine for bounding, useless
          for ordering.
        * ``"order"``: ``c[k, l] = tau_{l-1}`` -- the classic
          Qiu/Stein/Zhong charge.  The first interval is free, so the
          capacity constraints (not charge ties) decide which coflows
          get the early slots, making the fractional completion times
          discriminate by weight.  Still a valid (if looser) bound,
          since completing in interval ``l`` means ``C_k > tau_{l-1}``.
    """
    # scipy loads only where an LP/MILP is solved (docs/architecture.md,
    # "Import cost").
    from scipy import sparse
    from scipy.optimize import linprog

    if charge not in ("bound", "order"):
        raise ValueError(f"charge must be 'bound' or 'order', got {charge!r}")
    loads = np.asarray(loads, dtype=float)
    weights = np.asarray(weights, dtype=float)
    releases = np.asarray(releases, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if loads.ndim != 2:
        raise ValueError(f"loads must be 2-D (K, P), got shape {loads.shape}")
    n_coflows, n_res = loads.shape
    if rates.shape != (n_res,):
        raise ValueError("rates must match the load matrix's port axis")
    finite_entries("port rates", rates, strict=True)
    in_range("growth factor", growth, 1, math.inf, "()")
    if n_coflows == 0:
        return IntervalLPSolution(0.0, np.zeros(0), 0)

    # Earliest possible completion per coflow: release + isolation bottleneck.
    gamma = (loads / rates[None, :]).max(axis=1)
    earliest = releases + gamma
    positive = earliest[earliest > 0]
    if positive.size == 0:
        # All coflows are empty: they complete at their release times.
        return IntervalLPSolution(float(weights @ releases), releases.copy(), 0)

    # Geometric grid from the earliest completion up to a makespan bound
    # (everything run sequentially after the last release).
    tau0 = float(positive.min())
    horizon = float(releases.max() + gamma.sum())
    n_intervals = 1
    while tau0 * growth ** (n_intervals - 1) < horizon:
        n_intervals += 1
    taus = tau0 * growth ** np.arange(n_intervals)
    taus[-1] = max(taus[-1], horizon)
    prev_taus = np.concatenate(([0.0], taus[:-1]))

    # Variable x[k, l] flattened row-major: index = k * L + l.
    n_vars = n_coflows * n_intervals
    if charge == "bound":
        charges = np.maximum(prev_taus[None, :], earliest[:, None])
    else:
        charges = np.broadcast_to(
            prev_taus[None, :], (n_coflows, n_intervals)
        ).copy()
    cost = (weights[:, None] * charges).ravel()

    # Assignment rows: sum_l x[k, l] == 1.
    a_eq = sparse.kron(
        sparse.eye(n_coflows, format="csr"),
        np.ones((1, n_intervals)),
        format="csr",
    )
    b_eq = np.ones(n_coflows)

    # Capacity rows: for each resource p and interval l,
    #   sum_k load[k, p] * sum_{l' <= l} x[k, l'] <= rate_p * tau_l.
    # Build as kron(load_column_matrix, lower_triangular_ones).
    tril = sparse.csr_matrix(np.tril(np.ones((n_intervals, n_intervals))))
    active_res = np.flatnonzero(loads.max(axis=0) > 0)
    if active_res.size:
        a_ub = sparse.kron(
            sparse.csr_matrix(loads[:, active_res].T), tril, format="csr"
        )
        b_ub = (rates[active_res, None] * taus[None, :]).ravel()
    else:
        a_ub = None
        b_ub = None

    # Release constraints as variable bounds: x[k, l] = 0 when tau_l cannot
    # accommodate coflow k's earliest completion.
    upper = np.ones(n_vars)
    feasible = taus[None, :] >= earliest[:, None] * (1 - 1e-12)
    # Guard against fp round-off locking out the final interval entirely.
    feasible[:, -1] = True
    upper[~feasible.ravel()] = 0.0
    bounds = list(zip(np.zeros(n_vars), upper))

    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if res.x is None:
        # HiGHS failure (numerical trouble on a degenerate instance):
        # fall back to the trivial isolation bound so callers still get a
        # valid, deterministic answer.
        times = _smith_ratio_times(loads, releases, rates)
        return IntervalLPSolution(float(weights @ times), times, n_intervals)

    x = np.asarray(res.x).reshape(n_coflows, n_intervals)
    completion = (x * charges).sum(axis=1)
    return IntervalLPSolution(float(weights @ completion), completion, n_intervals)


def weighted_cct_lower_bound(
    coflows: Sequence[Coflow],
    fabric: Fabric,
    *,
    growth: float = DEFAULT_GROWTH,
) -> WeightedCCTBound:
    """Certified lower bound on ``sum_k w_k * C_k`` for an instance.

    ``C_k`` is coflow ``k``'s absolute completion time (so the bound is
    release-time aware); subtract ``sum_k w_k * r_k`` to bound the
    weighted *CCT* sum instead.  Every scheduler's achieved objective
    divided by :attr:`WeightedCCTBound.lower_bound` is its optimality
    gap.
    """
    kept = [c for c in coflows if c.flows]
    n_ports = fabric.n_ports
    rates = np.concatenate([fabric.egress_rates, fabric.ingress_rates])
    loads = np.zeros((len(kept), 2 * n_ports))
    for row, c in enumerate(kept):
        send, recv = c.port_loads(n_ports)
        loads[row, :n_ports] = send
        loads[row, n_ports:] = recv
    weights = np.array([c.weight for c in kept], dtype=float)
    releases = np.array([c.arrival_time for c in kept], dtype=float)

    # Flow-less coflows complete at their release instant and contribute
    # w_k * r_k to any schedule's objective; add that constant back in.
    empty_term = sum(c.weight * c.arrival_time for c in coflows if not c.flows)

    sol = interval_indexed_lp(loads, weights, releases, rates, growth=growth)
    gamma = (
        (loads / rates[None, :]).max(axis=1) if kept else np.zeros(0)
    )
    isolation = float(weights @ (releases + gamma)) + empty_term
    lp_times = {
        c.coflow_id: float(t) for c, t in zip(kept, sol.completion_times)
    }
    return WeightedCCTBound(
        lower_bound=sol.objective + empty_term,
        isolation_bound=isolation,
        lp_completion_times=lp_times,
        n_intervals=sol.n_intervals,
    )
