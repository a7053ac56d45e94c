"""Degraded size estimates: planning against noisy / censored chunk sizes.

The co-optimization plans from the chunk matrix ``h[i, k]``, which a real
engine obtains from statistics (catalog estimates, sampled map output
sizes).  Those statistics are *never* exact -- Qiu, Stein & Zhong's
experimental coflow study and Shi et al.'s joint routing/bandwidth work
both observe that schedule quality degrades sharply once flow-size
information is inaccurate.  :class:`NoisyEstimates` models that regime:

* **Multiplicative noise** -- every ``h[i, k]`` entry the planner sees is
  scaled by a seeded lognormal factor with unit mean (``sigma`` is the
  log-scale standard deviation), so estimates are unbiased but scattered.
* **Missing-column censoring** -- a seeded fraction of partitions have no
  size estimate at all; the planner sees zeros for them (it is blind to
  their volume) while the simulator still charges the true bytes.

The wrapper is *plan-time only*: :meth:`perturb_model` returns a model to
compute the assignment on; the true model evaluates and executes the
resulting plan, so the measured gap is exactly the T-optimality cost of
planning from bad statistics.  :meth:`flow_factor` serves the simulator's
scheduler-view variant (``CoflowSimulator(estimate_noise=...)``): the
scheduling discipline sees perturbed remaining volumes, the fluid drain
uses the true ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.checks import in_range, non_negative
from repro.core.model import ShuffleModel

__all__ = ["NoisyEstimates"]


@dataclass(frozen=True)
class NoisyEstimates:
    """Seeded perturbation of the planner's view of chunk sizes.

    Parameters
    ----------
    sigma:
        Log-scale standard deviation of the multiplicative lognormal
        noise applied to every ``h`` entry (0 disables it).  The factor
        distribution has unit mean, so estimates are unbiased.
    censor_fraction:
        Fraction of partition columns whose size is unknown to the
        planner; censored columns are zeroed in the planning model (and
        censored flows report a near-zero size to the scheduler).
    seed:
        RNG seed; equal seeds yield identical perturbations.
    """

    sigma: float = 0.0
    censor_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        non_negative("estimate-noise sigma", self.sigma)
        in_range("censor fraction", self.censor_fraction, 0, 1)

    @property
    def is_null(self) -> bool:
        """True when the wrapper changes nothing."""
        return self.sigma == 0.0 and self.censor_fraction == 0.0

    def reseeded(self, salt: int) -> "NoisyEstimates":
        """An equivalent wrapper with a seed derived from ``(seed, salt)``.

        Used to give every DAG stage its own independent (but
        reproducible) noise draw whatever order the stages happen to be
        planned in.
        """
        derived = int(
            np.random.default_rng([self.seed, salt]).integers(0, 2**31)
        )
        return replace(self, seed=derived)

    def perturb_model(self, model: ShuffleModel) -> ShuffleModel:
        """The model the planner sees: perturbed/censored ``h``.

        ``v0``, the rate and the residual extras are carried through
        unchanged -- they are commitments, not estimates.  The returned
        model is only for computing an assignment; evaluate and execute
        the assignment on the *true* model.
        """
        if self.is_null:
            return model
        rng = np.random.default_rng(self.seed)
        h = model.h.copy()
        if self.sigma > 0:
            factors = rng.lognormal(
                mean=-0.5 * self.sigma**2, sigma=self.sigma, size=h.shape
            )
            h *= factors
        if self.censor_fraction > 0 and model.p > 0:
            n_censored = int(round(self.censor_fraction * model.p))
            if n_censored > 0:
                cols = rng.choice(model.p, size=n_censored, replace=False)
                h[:, cols] = 0.0
        return ShuffleModel(
            h=h,
            v0=model.v0,
            rate=model.rate,
            local_bytes_pre=model.local_bytes_pre,
            name=f"{model.name}+noise" if model.name else "noisy",
            extra_send=model.extra_send,
            extra_recv=model.extra_recv,
        )

    def flow_factor(self, coflow_id: int, src: int, dst: int) -> float:
        """Multiplicative factor on one flow's *reported* remaining bytes.

        Deterministic in ``(seed, coflow_id, src, dst)``.  Censored flows
        return 0.0 -- the scheduler has no size information for them (the
        simulator floors the reported value to keep allocations sane).
        """
        rng = np.random.default_rng([self.seed, coflow_id, src, dst])
        if self.censor_fraction > 0 and rng.random() < self.censor_fraction:
            return 0.0
        if self.sigma == 0:
            return 1.0
        return float(
            rng.lognormal(mean=-0.5 * self.sigma**2, sigma=self.sigma)
        )
