"""Exact solution of the CCF co-optimization MILP (model (3)).

The paper solves model (3) with Gurobi; offline we substitute SciPy's
``milp`` (the HiGHS branch-and-cut solver) -- an identical formulation and
likewise exact.  Variables are the binary assignment ``x[j, k]`` plus the
continuous makespan ``T``:

    minimize  T
    s.t.      sum_k h[i,k] * (1 - x[i,k]) + send0_i <= T     (for all i)
              sum_k (S_k - h[j,k]) * x[j,k] + recv0_j <= T   (for all j)
              sum_j x[j,k] = 1                               (for all k)
              x binary, T >= 0

The problem is an integer multi-commodity flow instance (NP-complete); the
paper reports > 30 min solver time at n=500, p=7500, which motivates
Algorithm 1.  ``ccf run solver`` (:mod:`repro.experiments.solver`)
reproduces the scaling behaviour and measures the heuristic's optimality
gap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.model import ShuffleModel

__all__ = ["ccf_exact", "ExactResult"]

#: Refuse instances with more binary variables than this unless forced;
#: branch-and-cut time is exponential in the worst case.
_MAX_VARIABLES_DEFAULT = 50_000


@dataclass
class ExactResult:
    """Outcome of the exact MILP solve.

    Attributes
    ----------
    dest:
        Optimal assignment vector.
    bottleneck_bytes:
        Optimal objective ``T*`` in bytes.
    solve_seconds:
        Wall-clock solver time.
    status:
        HiGHS status string.
    """

    dest: np.ndarray
    bottleneck_bytes: float
    solve_seconds: float
    status: str


def ccf_exact(
    model: ShuffleModel,
    *,
    time_limit: float | None = None,
    mip_rel_gap: float = 0.0,
    max_variables: int = _MAX_VARIABLES_DEFAULT,
) -> ExactResult:
    """Solve model (3) exactly.

    Parameters
    ----------
    model:
        The shuffle model (chunk matrix + initial flows).
    time_limit:
        Optional solver wall-clock limit in seconds; when hit, the best
        incumbent found is returned (status reflects the early stop).
    mip_rel_gap:
        Relative optimality-gap termination criterion (0 = prove optimal).
    max_variables:
        Safety limit on ``n * p``; raise it explicitly for big instances.

    Raises
    ------
    ValueError
        If the instance exceeds ``max_variables`` or the solver finds no
        feasible assignment (cannot happen for valid inputs).
    """
    # scipy loads only where an LP/MILP is solved (docs/architecture.md,
    # "Import cost").
    import scipy.sparse as sp
    from scipy.optimize import Bounds, LinearConstraint, milp

    n, p = model.n, model.p
    if p == 0:
        return ExactResult(np.zeros(0, dtype=np.int64), 0.0, 0.0, "empty")
    n_x = n * p
    if n_x > max_variables:
        raise ValueError(
            f"exact MILP with n*p = {n_x} variables exceeds max_variables="
            f"{max_variables}; use ccf_heuristic or raise the limit"
        )

    h = model.h
    sizes = model.partition_sizes
    send0, recv0 = model.initial_loads()
    row_tot = h.sum(axis=1)

    # Variable layout: x[j, k] at index j * p + k, then T at index n_x.
    c = np.zeros(n_x + 1)
    c[n_x] = 1.0

    # (3.1) send constraints: -sum_k h[i,k] x[i,k] - T <= -(row_tot_i + send0_i)
    send_rows = sp.hstack(
        [
            sp.block_diag([-h[i: i + 1, :] for i in range(n)], format="csr"),
            -np.ones((n, 1)),
        ],
        format="csr",
    )
    send_ub = -(row_tot + send0)

    # (3.2) recv constraints: sum_k (S_k - h[j,k]) x[j,k] - T <= -recv0_j
    recv_rows = sp.hstack(
        [
            sp.block_diag(
                [(sizes - h[j, :]).reshape(1, -1) for j in range(n)], format="csr"
            ),
            -np.ones((n, 1)),
        ],
        format="csr",
    )
    recv_ub = -recv0

    # (1.3) each partition assigned exactly once: sum_j x[j,k] = 1
    ones = sp.hstack(
        [sp.hstack([sp.identity(p, format="csr")] * n), sp.csr_matrix((p, 1))],
        format="csr",
    )

    constraints = [
        LinearConstraint(send_rows, -np.inf, send_ub),
        LinearConstraint(recv_rows, -np.inf, recv_ub),
        LinearConstraint(ones, 1.0, 1.0),
    ]
    integrality = np.concatenate([np.ones(n_x), [0.0]])
    lb = np.zeros(n_x + 1)
    ub = np.concatenate([np.ones(n_x), [np.inf]])

    options: dict = {"mip_rel_gap": mip_rel_gap}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)

    start = time.perf_counter()
    res = milp(
        c,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lb, ub),
        options=options,
    )
    elapsed = time.perf_counter() - start

    if res.x is None:
        raise ValueError(f"MILP solve failed: {res.message}")
    x = np.asarray(res.x[:n_x]).reshape(n, p)
    dest = x.argmax(axis=0).astype(np.int64)
    return ExactResult(
        dest=dest,
        bottleneck_bytes=float(res.x[n_x]),
        solve_seconds=elapsed,
        status=str(res.message),
    )
