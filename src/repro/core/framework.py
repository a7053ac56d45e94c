"""The CCF orchestrator: the schedule/control layer of the paper's Fig. 3.

An analytical job is decomposed into distributed operators; for each
operator the framework takes the workload's data/network information,
optionally runs skew pre-processing, computes an application-level
assignment with the chosen strategy, and emits an
:class:`~repro.core.plan.ExecutionPlan` whose coflow the data-processing
layer (our simulator) executes.

Strategy semantics follow the paper's evaluation setup (§IV-A):

* ``hash``  -- no skew handling (represents network-level-only
  optimization: the raw hash plan executed by an optimal coflow schedule);
* ``mini``  -- skew handling + per-partition traffic minimization
  (application- and network-level optimization, but decoupled);
* ``ccf``   -- skew handling + Algorithm 1 (the co-optimization);
* ``ccf-ls``  -- ``ccf`` polished by single-move local search;
* ``ccf-exact`` -- skew handling + the exact MILP (small instances only).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.exact import ccf_exact
from repro.core.heuristic import ccf_heuristic
from repro.core.model import ShuffleModel
from repro.core.plan import ExecutionPlan
from repro.core.strategies import hash_assignment, mini_assignment

__all__ = ["CCF", "PlanComparison", "ShuffleWorkload", "DEFAULT_STRATEGIES"]

#: The three schemes compared throughout the paper's evaluation.
DEFAULT_STRATEGIES = ("hash", "mini", "ccf")


@runtime_checkable
class ShuffleWorkload(Protocol):
    """Anything that can express its shuffle as a :class:`ShuffleModel`.

    ``skew_handling=False`` must return the raw model (all bytes in the
    chunk matrix); ``True`` applies partial duplication when the workload
    has skew information (and may return the raw model when it has none).
    """

    def shuffle_model(self, *, skew_handling: bool) -> ShuffleModel:  # pragma: no cover
        ...


@dataclass
class PlanComparison:
    """Plans of several strategies over the same workload.

    Provides the derived quantities reported in the paper: traffic,
    communication time, and pairwise speedups.
    """

    plans: dict[str, ExecutionPlan] = field(default_factory=dict)

    def __getitem__(self, strategy: str) -> ExecutionPlan:
        return self.plans[strategy]

    def __contains__(self, strategy: str) -> bool:
        return strategy in self.plans

    @property
    def strategies(self) -> list[str]:
        return list(self.plans)

    def traffic(self, strategy: str) -> float:
        """Network traffic (bytes) of one strategy's plan."""
        return self.plans[strategy].traffic

    def cct(self, strategy: str) -> float:
        """Communication time (seconds) of one strategy's plan."""
        return self.plans[strategy].cct

    def speedup(self, slow: str, fast: str) -> float:
        """How many times faster ``fast``'s communication is than ``slow``'s."""
        denom = self.plans[fast].cct
        if denom == 0:
            return float("inf")
        return self.plans[slow].cct / denom

    def row(self) -> dict[str, float]:
        """Flat metric dict, convenient for experiment tables."""
        out: dict[str, float] = {}
        for name, plan in self.plans.items():
            out[f"{name}_traffic_gb"] = plan.traffic / 1e9
            out[f"{name}_cct_s"] = plan.cct
            out[f"{name}_solve_s"] = plan.solve_seconds
        return out


class CCF:
    """Coflow-based Co-optimization Framework front-end.

    Parameters
    ----------
    skew_handling:
        Apply partial duplication for the ``mini``/``ccf`` strategies when
        the workload supports it (paper default: on).
    sort_partitions, locality_tiebreak:
        Algorithm 1 knobs (see :func:`repro.core.heuristic.ccf_heuristic`).
    exact_time_limit:
        Wall-clock cap for the ``ccf-exact`` strategy.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import CCF, ShuffleModel
    >>> model = ShuffleModel(h=np.array([[4., 0.], [1., 3.]]), rate=1.0)
    >>> plan = CCF().plan(model, strategy="ccf")
    >>> plan.dest.shape
    (2,)
    """

    def __init__(
        self,
        *,
        skew_handling: bool = True,
        sort_partitions: bool = True,
        locality_tiebreak: bool = True,
        exact_time_limit: float | None = None,
        exact_max_variables: int | None = None,
    ) -> None:
        self.skew_handling = skew_handling
        self.sort_partitions = sort_partitions
        self.locality_tiebreak = locality_tiebreak
        self.exact_time_limit = exact_time_limit
        self.exact_max_variables = exact_max_variables

    # ------------------------------------------------------------------
    def model_for(
        self, workload: ShuffleWorkload | ShuffleModel, strategy: str
    ) -> ShuffleModel:
        """Resolve the shuffle model a strategy plans against.

        Per the paper's setup, skew handling is integrated into ``mini``
        and ``ccf`` but not into ``hash``.
        """
        if isinstance(workload, ShuffleModel):
            return workload
        return workload.shuffle_model(skew_handling=self._uses_skew(strategy))

    def _uses_skew(self, strategy: str) -> bool:
        return self.skew_handling and strategy != "hash"

    def assign(self, model: ShuffleModel, strategy: str) -> np.ndarray:
        """Compute the assignment vector for one strategy."""
        if strategy == "hash":
            return hash_assignment(model)
        if strategy == "mini":
            return mini_assignment(model)
        if strategy == "ccf":
            return ccf_heuristic(
                model,
                sort_partitions=self.sort_partitions,
                locality_tiebreak=self.locality_tiebreak,
            )
        if strategy == "ccf-ls":
            from repro.core.localsearch import refine_assignment

            start = ccf_heuristic(
                model,
                sort_partitions=self.sort_partitions,
                locality_tiebreak=self.locality_tiebreak,
            )
            return refine_assignment(model, start).dest
        if strategy == "ccf-exact":
            kwargs: dict = {"time_limit": self.exact_time_limit}
            if self.exact_max_variables is not None:
                kwargs["max_variables"] = self.exact_max_variables
            return ccf_exact(model, **kwargs).dest
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of "
            "'hash', 'mini', 'ccf', 'ccf-ls', 'ccf-exact'"
        )

    def plan(
        self, workload: ShuffleWorkload | ShuffleModel, strategy: str = "ccf"
    ) -> ExecutionPlan:
        """Produce a timed, evaluated execution plan for one operator."""
        return self._timed_plan(self.model_for(workload, strategy), strategy)

    def _timed_plan(self, model: ShuffleModel, strategy: str) -> ExecutionPlan:
        start = time.perf_counter()
        dest = self.assign(model, strategy)
        elapsed = time.perf_counter() - start
        return ExecutionPlan(
            model=model, dest=dest, strategy=strategy, solve_seconds=elapsed
        )

    def compare(
        self,
        workload: ShuffleWorkload | ShuffleModel,
        strategies: tuple[str, ...] = DEFAULT_STRATEGIES,
    ) -> PlanComparison:
        """Plan the same workload under several strategies (paper Fig. 4).

        Each distinct model is built once: ``hash`` plans against the raw
        model, and the skew-handled strategies share one skew-handled
        model (models are never modified after construction).
        """
        models: dict[bool, ShuffleModel] = {}
        plans = {}
        for s in strategies:
            key = self._uses_skew(s)
            if key not in models:
                models[key] = self.model_for(workload, s)
            plans[s] = self._timed_plan(models[key], s)
        return PlanComparison(plans=plans)
