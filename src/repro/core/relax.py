"""LP relaxation of model (3) with randomized rounding.

A middle ground between Algorithm 1 and the exact MILP: drop the
integrality constraint on ``x[j, k]`` (the LP solves in polynomial time
and its optimum ``T_LP`` is a *lower bound* on the integral optimum),
then round each partition to a destination drawn from its fractional
assignment and repair with a greedy pass.  Several rounding trials are
evaluated and the best one kept.

This solver is not part of the paper; it is included as a quality probe:
``T_LP <= T* <= T_heuristic`` sandwiches both the exact optimum and the
heuristic's gap without paying the exponential branch-and-bound cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.checks import at_least
from repro.core.model import ShuffleModel

__all__ = ["ccf_lp_rounding", "LPRoundingResult"]


@dataclass
class LPRoundingResult:
    """Outcome of the relax-and-round solve.

    Attributes
    ----------
    dest:
        Best rounded assignment.
    bottleneck_bytes:
        The rounded plan's ``T`` (an upper bound on the optimum).
    lp_lower_bound:
        The fractional optimum ``T_LP`` (a lower bound on the optimum).
    solve_seconds:
        Total wall-clock time (LP + all rounding trials).
    trials:
        Number of rounding trials evaluated.
    """

    dest: np.ndarray
    bottleneck_bytes: float
    lp_lower_bound: float
    solve_seconds: float
    trials: int

    @property
    def gap_upper_bound(self) -> float:
        """Certified optimality gap: (T_rounded - T_LP) / T_LP."""
        if self.lp_lower_bound == 0:
            return 0.0
        return (self.bottleneck_bytes - self.lp_lower_bound) / self.lp_lower_bound


def _solve_lp(model: ShuffleModel) -> tuple[np.ndarray, float]:
    """Fractional optimum of model (3): returns (x[n, p], T_LP)."""
    # scipy loads only where an LP/MILP is solved (docs/architecture.md,
    # "Import cost").
    import scipy.sparse as sp
    from scipy.optimize import linprog

    n, p = model.n, model.p
    h = model.h
    sizes = model.partition_sizes
    send0, recv0 = model.initial_loads()
    row_tot = h.sum(axis=1)
    n_x = n * p

    c = np.zeros(n_x + 1)
    c[n_x] = 1.0

    send_rows = sp.hstack(
        [
            sp.block_diag([-h[i: i + 1, :] for i in range(n)], format="csr"),
            -np.ones((n, 1)),
        ],
        format="csr",
    )
    recv_rows = sp.hstack(
        [
            sp.block_diag(
                [(sizes - h[j, :]).reshape(1, -1) for j in range(n)], format="csr"
            ),
            -np.ones((n, 1)),
        ],
        format="csr",
    )
    a_ub = sp.vstack([send_rows, recv_rows], format="csr")
    b_ub = np.concatenate([-(row_tot + send0), -recv0])

    ones = sp.hstack(
        [sp.hstack([sp.identity(p, format="csr")] * n), sp.csr_matrix((p, 1))],
        format="csr",
    )
    b_eq = np.ones(p)

    bounds = [(0.0, 1.0)] * n_x + [(0.0, None)]
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=ones, b_eq=b_eq, bounds=bounds,
        method="highs",
    )
    if res.x is None:
        raise ValueError(f"LP relaxation failed: {res.message}")
    return np.asarray(res.x[:n_x]).reshape(n, p), float(res.x[n_x])


def ccf_lp_rounding(
    model: ShuffleModel,
    *,
    trials: int = 16,
    seed: int = 0,
) -> LPRoundingResult:
    """Solve the LP relaxation and round to an integral assignment.

    Parameters
    ----------
    model:
        The shuffle model.
    trials:
        Independent randomized-rounding draws to evaluate; the best by
        achieved ``T`` is returned.  Trial 0 is the deterministic
        round-to-argmax.
    seed:
        RNG seed for the randomized trials.
    """
    at_least("trials", trials, 1)
    start = time.perf_counter()
    n, p = model.n, model.p
    if p == 0:
        return LPRoundingResult(
            dest=np.zeros(0, dtype=np.int64),
            bottleneck_bytes=0.0,
            lp_lower_bound=0.0,
            solve_seconds=time.perf_counter() - start,
            trials=0,
        )

    frac, t_lp = _solve_lp(model)
    # Normalize defensively: HiGHS returns x summing to 1 per partition,
    # but guard against tiny drift before treating columns as pmfs.
    col_sums = frac.sum(axis=0)
    col_sums[col_sums <= 0] = 1.0
    pmf = np.clip(frac, 0.0, None) / col_sums

    rng = np.random.default_rng(seed)
    best_dest: np.ndarray | None = None
    best_t = np.inf
    for trial in range(trials):
        if trial == 0:
            dest = pmf.argmax(axis=0).astype(np.int64)
        else:
            # Vectorized categorical draw per partition via inverse CDF.
            cdf = np.cumsum(pmf, axis=0)
            u = rng.random(p)
            dest = (u[None, :] < cdf).argmax(axis=0).astype(np.int64)
        t = model.evaluate(dest).bottleneck_bytes
        if t < best_t:
            best_t, best_dest = t, dest

    assert best_dest is not None
    return LPRoundingResult(
        dest=best_dest,
        bottleneck_bytes=float(best_t),
        lp_lower_bound=t_lp,
        solve_seconds=time.perf_counter() - start,
        trials=trials,
    )
