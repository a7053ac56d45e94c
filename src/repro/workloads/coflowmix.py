"""Synthetic coflow mixes in the style of the Facebook trace.

Varys and Aalo evaluate their schedulers on a one-hour Hive/MapReduce
trace from a 3000-machine Facebook cluster, whose coflows famously fall
into four bins: Short/Narrow, Long/Narrow, Short/Wide, Long/Wide -- with
narrow coflows dominating by count and wide ones by bytes.  The trace
itself is not redistributable, so this module generates synthetic mixes
with the same structure: Poisson arrivals, a four-bin width/size mixture
with heavy-tailed flow sizes, and uniformly drawn endpoints.

Used by the scheduler ablations to evaluate the coflow disciplines under
a realistic (not join-shaped) load, independent of the CCF paper's
TPC-H workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.checks import at_least, in_range, non_negative, positive
from repro.network.flow import Coflow, Flow

__all__ = ["CoflowMixConfig", "generate_coflow_mix", "BIN_DEFINITIONS"]

#: (name, probability, width range, per-flow MB range) for the four bins.
#: Probabilities follow the published breakdown: ~60% narrow-short,
#: ~16% narrow-long, ~12% wide-short, ~12% wide-long.
BIN_DEFINITIONS: tuple[tuple[str, float, tuple[int, int], tuple[float, float]], ...] = (
    ("short-narrow", 0.60, (1, 8), (0.1, 5.0)),
    ("long-narrow", 0.16, (1, 8), (5.0, 500.0)),
    ("short-wide", 0.12, (8, 64), (0.1, 5.0)),
    ("long-wide", 0.12, (8, 64), (5.0, 500.0)),
)


@dataclass
class CoflowMixConfig:
    """Parameters of the synthetic trace.

    Parameters
    ----------
    n_ports:
        Fabric size the coflows are drawn over.
    n_coflows:
        Number of coflows to generate.
    arrival_rate:
        Poisson arrival rate in coflows/second.
    seed:
        RNG seed.
    deadline_fraction:
        Fraction of coflows tagged with a deadline (relative slack drawn
        uniformly in ``deadline_slack``); for exercising deadline mode.
    deadline_slack:
        (low, high) multipliers applied to the coflow's isolated
        bottleneck time to form its deadline.
    """

    n_ports: int = 50
    n_coflows: int = 100
    arrival_rate: float = 1.0
    seed: int = 0
    deadline_fraction: float = 0.0
    deadline_slack: tuple[float, float] = (1.5, 4.0)

    def __post_init__(self) -> None:
        at_least("n_ports", self.n_ports, 2)
        non_negative("n_coflows", self.n_coflows)
        positive("arrival_rate", self.arrival_rate)
        in_range("deadline_fraction", self.deadline_fraction, 0, 1)


def _draw_bin(rng: np.random.Generator) -> tuple[str, tuple[int, int], tuple[float, float]]:
    probs = np.array([b[1] for b in BIN_DEFINITIONS])
    idx = rng.choice(len(BIN_DEFINITIONS), p=probs / probs.sum())
    name, _, widths, sizes = BIN_DEFINITIONS[idx]
    return name, widths, sizes


def generate_coflow_mix(
    config: CoflowMixConfig,
    *,
    rate_for_deadlines: float = 128e6,
    rng: np.random.Generator | None = None,
) -> list[Coflow]:
    """Generate the synthetic coflow trace.

    ``rate_for_deadlines`` is the port rate used to convert a coflow's
    bottleneck bytes into the base time its deadline slack multiplies.
    ``rng`` lets a caller hand in an already-spawned generator (e.g. one
    derived through ``repro.core.seeds.derive_seed``) so service
    and sweep seeding compose; omitted, ``config.seed`` is used exactly
    as before.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    coflows: list[Coflow] = []
    t = 0.0
    for cid in range(config.n_coflows):
        t += float(rng.exponential(1.0 / config.arrival_rate))
        bin_name, (w_lo, w_hi), (s_lo, s_hi) = _draw_bin(rng)
        width = int(rng.integers(w_lo, w_hi + 1))
        flows: list[Flow] = []
        for _ in range(width):
            src = int(rng.integers(0, config.n_ports))
            dst = int(rng.integers(0, config.n_ports - 1))
            if dst >= src:
                dst += 1
            # Log-uniform per-flow size inside the bin's MB range.
            vol = float(
                np.exp(rng.uniform(np.log(s_lo * 1e6), np.log(s_hi * 1e6)))
            )
            flows.append(Flow(src=src, dst=dst, volume=vol))
        coflow = Coflow(
            flows=flows, arrival_time=t, coflow_id=cid, name=bin_name
        )
        if rng.random() < config.deadline_fraction:
            base = coflow.bottleneck(config.n_ports, rate_for_deadlines)
            slack = rng.uniform(*config.deadline_slack)
            coflow = Coflow(
                flows=list(coflow.flows),
                arrival_time=t,
                coflow_id=cid,
                name=bin_name,
                deadline=max(base * slack, 1e-6),
            )
        coflows.append(coflow)
    return coflows
