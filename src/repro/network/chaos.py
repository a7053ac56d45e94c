"""Seeded chaos harness: random port failure/repair schedules.

Turns MTBF/MTTR-style reliability parameters into a deterministic
:class:`~repro.network.dynamics.FabricDynamics` schedule of full port
failures (rate to zero) and repairs (original rates restored), so
experiments can subject every scheduler x recovery-policy combination to
*identical* fault sequences.  Failure inter-arrival and repair times are
exponential, the classical memoryless reliability model; the generator is
seeded, so the same configuration always yields the same schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.checks import at_least, positive
from repro.network.dynamics import FabricDynamics, RateEvent
from repro.network.fabric import Fabric

__all__ = ["ChaosConfig", "chaos_schedule"]


@dataclass(frozen=True)
class ChaosConfig:
    """Parameters of a random failure schedule.

    Parameters
    ----------
    mtbf:
        Mean time between failures (seconds, fleet-wide): failure
        instants arrive as a Poisson process with this mean gap.
    mttr:
        Mean time to repair one failed port (seconds, exponential).
    horizon:
        No *new* failures are injected at or after this time (repairs may
        land later, so every injected failure is eventually repaired and
        the ``retry`` policy can always finish).
    seed:
        RNG seed; equal seeds yield byte-identical schedules.
    ports:
        Optional subset of ports eligible to fail (default: all).
    min_alive:
        Never take a failure that would leave fewer than this many fully
        functional ports (default 1), so ``replan`` always has a
        surviving destination.
    """

    mtbf: float
    mttr: float
    horizon: float
    seed: int = 0
    ports: tuple[int, ...] | None = None
    min_alive: int = 1

    def __post_init__(self) -> None:
        positive("mtbf", self.mtbf)
        positive("mttr", self.mttr)
        # chaos_schedule stops drawing failures at ``t >= horizon``.
        positive("horizon", self.horizon)
        at_least("min_alive", self.min_alive, 1)


def chaos_schedule(config: ChaosConfig, fabric: Fabric) -> FabricDynamics:
    """Generate a seeded failure/repair schedule for ``fabric``.

    Each failure kills both directions of one currently-alive port and is
    paired with a repair event restoring the port's original rates after
    an exponential downtime.  A port cannot fail again while it is down,
    and at least ``config.min_alive`` ports stay up at all times.
    """
    requested = (
        list(config.ports)
        if config.ports is not None
        else list(range(fabric.n_ports))
    )
    for p in requested:
        if not 0 <= p < fabric.n_ports:
            raise ValueError(
                f"chaos port {p} out of range for fabric size {fabric.n_ports}"
            )
    # A port with a zero-rate direction is already dead: "failing" it is
    # a no-op and its repair event would have to restore a rate of zero,
    # which RateEvent.recovery rightly rejects.  Only live ports are
    # eligible to fail.
    candidates = [
        p
        for p in requested
        if fabric.egress_rates[p] > 0 and fabric.ingress_rates[p] > 0
    ]
    if not candidates:
        raise ValueError(
            "no chaos-eligible ports: every requested port has a zero-rate "
            "direction (already dead)"
        )
    if fabric.n_ports <= config.min_alive:
        raise ValueError(
            f"min_alive={config.min_alive} leaves no port eligible to fail "
            f"on a {fabric.n_ports}-port fabric"
        )

    rng = np.random.default_rng(config.seed)
    events: list[RateEvent] = []
    down_until: dict[int, float] = {}
    t = 0.0
    while True:
        t += float(rng.exponential(config.mtbf))
        if t >= config.horizon:
            break
        up = [p for p in candidates if down_until.get(p, 0.0) <= t]
        n_down = sum(1 for r in down_until.values() if r > t)
        if not up or fabric.n_ports - n_down <= config.min_alive:
            continue
        port = int(rng.choice(up))
        repair = t + float(rng.exponential(config.mttr))
        events.append(RateEvent.failure(t, port))
        events.append(
            RateEvent.recovery(
                repair,
                port,
                egress=float(fabric.egress_rates[port]),
                ingress=float(fabric.ingress_rates[port]),
            )
        )
        down_until[port] = repair
    return FabricDynamics(events)
