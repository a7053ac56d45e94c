"""Seeded open-loop arrival generators for the service mode.

Arrivals are composed the way a serving platform sees them: ``users``
active users each issuing ``qps_per_user`` queries per second, giving an
aggregate arrival rate ``lambda = users * qps_per_user``.  Inter-arrival
gaps are either exponential (Poisson process) or Pareto (heavy-tailed
bursts with the same mean rate); each arrival's coflow is drawn from a
size mix -- the four-bin Facebook mix from
:mod:`repro.workloads.coflowmix` or a Zipf per-flow-size mix.

Everything is seeded through
:func:`repro.core.seeds.derive_seed`, so a stream is a pure
function of its config: re-creating it replays the identical arrival
sequence, and :meth:`ArrivalStream.skip` fast-forwards a replay for
resumption.

The module also knows the analytic mean coflow size of each mix
(:func:`expected_coflow_bytes`), which turns an offered-load target
``rho`` into a port rate and back (:func:`rate_for_load`,
:func:`offered_load`): with ``n`` ports of rate ``r`` the fabric moves
at most ``n * r`` bytes/s, so ``rho = lambda * E[bytes] / (n * r)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.checks import at_least, in_range, non_negative, positive
from repro.core.seeds import derive_seed
from repro.network.flow import Coflow, Flow
from repro.workloads.coflowmix import BIN_DEFINITIONS

__all__ = [
    "ArrivalConfig",
    "ArrivalStream",
    "expected_coflow_bytes",
    "offered_load",
    "rate_for_load",
    "PROCESSES",
    "SIZE_MIXES",
]

PROCESSES = ("poisson", "pareto")
SIZE_MIXES = ("facebook", "zipf")

#: Zipf mix parameters: width uniform in [1, _ZIPF_WIDTH_MAX], per-flow
#: volume ``size_scale * _ZIPF_UNIT_BYTES * min(Z, _ZIPF_CAP)`` with
#: ``Z ~ Zipf(zipf_a)``.  The cap keeps the mean finite and analytic.
_ZIPF_WIDTH_MAX = 16
_ZIPF_UNIT_BYTES = 1e6
_ZIPF_CAP = 1000


@dataclass(frozen=True)
class ArrivalConfig:
    """Parameters of one open-loop arrival stream.

    Parameters
    ----------
    n_ports:
        Fabric size the coflows are drawn over.
    users:
        Concurrently active users.
    qps_per_user:
        Queries (coflows) each user issues per second; the aggregate
        arrival rate is ``users * qps_per_user``.
    process:
        Inter-arrival law: ``"poisson"`` (exponential gaps) or
        ``"pareto"`` (heavy-tailed gaps with the same mean).
    pareto_alpha:
        Tail index of the Pareto gaps; must exceed 1 so the mean rate
        is defined (smaller = burstier).
    size_mix:
        ``"facebook"`` (the four-bin coflow mix) or ``"zipf"``
        (Zipf-distributed per-flow sizes).
    zipf_a:
        Zipf exponent for the ``"zipf"`` mix (> 1).
    size_scale:
        Multiplier on every flow volume.  The raw Facebook mix averages
        ~550 MB/coflow -- hours of simulated drain per arrival; service
        scenarios scale it down so CCTs land on interactive time scales
        without changing the shape of the distribution.
    max_arrivals:
        Stream length; the stream is exhausted after this many coflows.
    horizon:
        Optional time cutoff (seconds): arrivals past it are not
        generated even if ``max_arrivals`` has not been reached.
    seed:
        Base seed; the stream's generator is spawned through
        ``derive_seed(seed, "service-arrivals", ...)``.
    """

    n_ports: int = 24
    users: int = 20
    qps_per_user: float = 0.1
    process: str = "poisson"
    pareto_alpha: float = 1.5
    size_mix: str = "facebook"
    zipf_a: float = 2.0
    size_scale: float = 0.002
    max_arrivals: int = 1000
    horizon: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        at_least("n_ports", self.n_ports, 2)
        at_least("users", self.users, 1)
        positive("qps_per_user", self.qps_per_user)
        if self.process not in PROCESSES:
            raise ValueError(
                f"unknown process {self.process!r}; pick from {PROCESSES}"
            )
        # The gaps' mean is finite only for alpha > 1.
        in_range("pareto_alpha", self.pareto_alpha, 1, math.inf, "()")
        if self.size_mix not in SIZE_MIXES:
            raise ValueError(
                f"unknown size_mix {self.size_mix!r}; pick from {SIZE_MIXES}"
            )
        in_range("zipf_a", self.zipf_a, 1, math.inf, "()")
        positive("size_scale", self.size_scale)
        non_negative("max_arrivals", self.max_arrivals)
        if self.horizon is not None:
            positive("horizon", self.horizon)

    @property
    def arrival_rate(self) -> float:
        """Aggregate coflow arrival rate in coflows/second."""
        return self.users * self.qps_per_user


def expected_coflow_bytes(config: ArrivalConfig) -> float:
    """Analytic mean bytes per coflow of the configured size mix.

    Facebook mix: over the four bins, ``E[width]`` is the uniform
    integer mean and ``E[flow bytes]`` the log-uniform mean
    ``(b - a) / ln(b / a)``.  Zipf mix: uniform width times the mean of
    the capped Zipf, ``E[min(Z, cap)] = sum_{k=1..cap} P(Z >= k)``.
    """
    if config.size_mix == "facebook":
        total = 0.0
        for _, prob, (w_lo, w_hi), (s_lo, s_hi) in BIN_DEFINITIONS:
            mean_width = (w_lo + w_hi) / 2.0
            a, b = s_lo * 1e6, s_hi * 1e6
            mean_flow = (b - a) / np.log(b / a)
            total += prob * mean_width * mean_flow
        return total * config.size_scale
    # Zipf: P(Z = k) = k^-a / zeta(a); E[min(Z, cap)] via tail sums.
    a = config.zipf_a
    ks = np.arange(1, _ZIPF_CAP + 1, dtype=float)
    weights = ks**-a
    # zeta(a) ~ partial sum + integral tail bound (accurate for a > 1).
    tail = _ZIPF_CAP ** (1.0 - a) / (a - 1.0)
    zeta = float(weights.sum()) + tail
    # P(Z >= k) for k = 1..cap: 1 - (partial sums up to k-1) / zeta.
    cdf_below = np.concatenate([[0.0], np.cumsum(weights)[:-1]]) / zeta
    mean_z = float(np.sum(1.0 - cdf_below))
    mean_width = (1 + _ZIPF_WIDTH_MAX) / 2.0
    return mean_width * mean_z * _ZIPF_UNIT_BYTES * config.size_scale


def offered_load(config: ArrivalConfig, rate: float) -> float:
    """Offered utilization ``rho`` of a fabric with per-port ``rate``."""
    positive("rate", rate)
    return (
        config.arrival_rate
        * expected_coflow_bytes(config)
        / (config.n_ports * rate)
    )


def rate_for_load(config: ArrivalConfig, load: float) -> float:
    """Port rate at which the stream offers utilization ``load``."""
    positive("load", load)
    return (
        config.arrival_rate
        * expected_coflow_bytes(config)
        / (config.n_ports * load)
    )


class ArrivalStream:
    """Deterministic lazy iterator over one arrival stream.

    One coflow is materialized at a time (bounded memory regardless of
    stream length).  :meth:`peek_time` / :meth:`pop` are the polling
    interface the admission controller drives; plain iteration works
    too.  Coflow ids are sequential from 0 and arrival times strictly
    ordered by construction.
    """

    def __init__(self, config: ArrivalConfig) -> None:
        self.config = config
        self._rng = np.random.default_rng(
            derive_seed(
                config.seed,
                "service-arrivals",
                config.process,
                config.size_mix,
            )
        )
        self.generated = 0
        self._t = 0.0
        self._next: Coflow | None = None
        self._advance()

    # -- polling interface ---------------------------------------------
    def peek_time(self) -> float | None:
        """Arrival time of the next coflow, or None when exhausted."""
        return None if self._next is None else self._next.arrival_time

    def pop(self) -> Coflow:
        """Consume and return the next coflow."""
        if self._next is None:
            raise StopIteration("arrival stream exhausted")
        out = self._next
        self._advance()
        return out

    def skip(self, n: int) -> None:
        """Fast-forward ``n`` arrivals (replay-based resumption)."""
        for _ in range(n):
            if self._next is None:
                return
            self.pop()

    def __iter__(self) -> "ArrivalStream":
        return self

    def __next__(self) -> Coflow:
        if self._next is None:
            raise StopIteration
        return self.pop()

    # -- generation ----------------------------------------------------
    def _advance(self) -> None:
        cfg = self.config
        if self.generated >= cfg.max_arrivals:
            self._next = None
            return
        self._t += self._gap()
        if cfg.horizon is not None and self._t > cfg.horizon:
            self._next = None
            return
        self._next = self._draw_coflow(self.generated, self._t)
        self.generated += 1

    def _gap(self) -> float:
        cfg = self.config
        mean = 1.0 / cfg.arrival_rate
        if cfg.process == "poisson":
            return float(self._rng.exponential(mean))
        # Pareto(alpha) via numpy's Lomax: mean 1/(alpha-1), rescaled
        # so the process keeps the configured aggregate rate.
        return float(
            self._rng.pareto(cfg.pareto_alpha)
            * (cfg.pareto_alpha - 1.0)
            * mean
        )

    def _draw_coflow(self, cid: int, t: float) -> Coflow:
        cfg = self.config
        rng = self._rng
        if cfg.size_mix == "facebook":
            probs = np.array([b[1] for b in BIN_DEFINITIONS])
            idx = rng.choice(len(BIN_DEFINITIONS), p=probs / probs.sum())
            name, _, (w_lo, w_hi), (s_lo, s_hi) = BIN_DEFINITIONS[idx]
            width = int(rng.integers(w_lo, w_hi + 1))
            log_lo, log_hi = np.log(s_lo * 1e6), np.log(s_hi * 1e6)
            volumes = (
                np.exp(rng.uniform(log_lo, log_hi, size=width))
                * cfg.size_scale
            )
        else:
            name = "zipf"
            width = int(rng.integers(1, _ZIPF_WIDTH_MAX + 1))
            z = np.minimum(rng.zipf(cfg.zipf_a, size=width), _ZIPF_CAP)
            volumes = z * _ZIPF_UNIT_BYTES * cfg.size_scale
        flows = []
        for vol in volumes:
            src = int(rng.integers(0, cfg.n_ports))
            dst = int(rng.integers(0, cfg.n_ports - 1))
            if dst >= src:
                dst += 1
            flows.append(Flow(src=src, dst=dst, volume=float(vol)))
        return Coflow(
            flows=flows, arrival_time=t, coflow_id=cid, name=name
        )
