"""Capacity planning: binary-search the knee of the p95-CCT curve.

Answers the operator's questions directly: "how much traffic can this
fabric take before p95 CCT blows the budget?" (:func:`find_load_capacity`)
and "how many nodes do I need to serve this traffic within budget?"
(:func:`find_node_capacity`).  Both run short probe scenarios through
:func:`~repro.service.loop.run_service` and bisect on the SLO verdict,
exploiting monotonicity: p95 CCT rises with offered load and falls with
node count.  Every probe is recorded, so the output doubles as the
measured load/latency curve around the knee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.core.checks import at_least, in_range, positive
from repro.service.loop import ServiceConfig, run_service

__all__ = [
    "CapacityProbe",
    "CapacityResult",
    "find_load_capacity",
    "find_node_capacity",
]


@dataclass(frozen=True)
class CapacityProbe:
    """One probe run: the axis value tried and what it measured."""

    value: float
    p95: float
    shed_fraction: float
    completed: int
    ok: bool


@dataclass
class CapacityResult:
    """Bisection outcome: the knee plus every probe along the way.

    ``status`` disambiguates the edge cases a bare ``best`` cannot:

    - ``"knee"`` -- the knee lies strictly inside the probed range and
      ``best`` is its bisection estimate.
    - ``"all-ok"`` -- every probe met the budget; ``best`` is the probed
      bound (``hi`` for load, ``lo`` for nodes) and the true capacity
      may lie beyond the probed range.
    - ``"none-ok"`` -- even the most favourable bound breached the
      budget; ``best`` is None and the search stopped after one probe.
    """

    axis: str
    budget_s: float
    best: float | None
    probes: list[CapacityProbe]
    status: str = "knee"

    def describe(self) -> str:
        """One-line human reading of the outcome, edge cases included."""
        if self.axis == "load":
            favourable, widen = "lowest probed load", "raise hi"
            label = "highest sustainable load"
        else:
            favourable, widen = "largest probed fabric", "lower lo"
            label = "smallest sufficient fabric"
        if self.status == "none-ok":
            return (
                f"no capacity in range: even the {favourable} "
                f"({self.probes[0].value:g}) breaches the "
                f"{self.budget_s:g} s budget"
            )
        if self.status == "all-ok":
            return (
                f"{label}: {self.best:g} (budget met at every probe; "
                f"the true knee may lie outside the probed range -- "
                f"{widen} to find it)"
            )
        return f"{label}: {self.best:g}"

    def table(self) -> str:
        """Plain-text probe table (the CLI's output body)."""
        lines = [f"{'probe':>10}  {'p95 CCT (s)':>12}  {'shed':>6}  ok"]
        for p in self.probes:
            lines.append(
                f"{p.value:>10.4g}  {p.p95:>12.6g}  "
                f"{p.shed_fraction:>6.1%}  {'yes' if p.ok else 'NO'}"
            )
        return "\n".join(lines)


def _probe(
    config: ServiceConfig, budget_s: float, value: float
) -> CapacityProbe:
    report, _, _ = run_service(config)
    p95 = report.reported_p95
    # A probe only counts as healthy if latency is in budget AND the
    # run actually completed a meaningful share of what it admitted --
    # a fabric that sheds everything has great p95 and no capacity.
    ok = p95 <= budget_s and report.completed > 0
    return CapacityProbe(
        value=value,
        p95=p95,
        shed_fraction=report.shed_fraction,
        completed=report.completed,
        ok=ok,
    )


def find_load_capacity(
    config: ServiceConfig,
    *,
    budget_s: float,
    lo: float = 0.2,
    hi: float = 2.0,
    iters: int = 6,
    probe_arrivals: int | None = None,
) -> CapacityResult:
    """Highest offered load whose steady p95 CCT stays within budget.

    Bisects load in ``[lo, hi]``; ``config.rate`` must be None so each
    probe re-derives the port rate from its load.  ``probe_arrivals``
    optionally shortens the probe streams (fewer arrivals per probe).
    Returns the best passing load (None if even ``lo`` breaches).
    """
    positive("budget_s", budget_s)
    positive("lo", lo)
    in_range("hi", hi, lo, math.inf, "()")
    if config.rate is not None:
        raise ValueError(
            "load search needs config.rate=None (rate is derived from "
            "the probed load)"
        )

    def at(load: float) -> ServiceConfig:
        cfg = replace(config, load=load)
        if probe_arrivals is not None:
            cfg = replace(
                cfg, arrival=replace(cfg.arrival, max_arrivals=probe_arrivals)
            )
        return cfg

    probes: list[CapacityProbe] = []
    lo_probe = _probe(at(lo), budget_s, lo)
    probes.append(lo_probe)
    if not lo_probe.ok:
        return CapacityResult("load", budget_s, None, probes, "none-ok")
    hi_probe = _probe(at(hi), budget_s, hi)
    probes.append(hi_probe)
    if hi_probe.ok:
        return CapacityResult("load", budget_s, hi, probes, "all-ok")
    best = lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        p = _probe(at(mid), budget_s, mid)
        probes.append(p)
        if p.ok:
            best, lo = mid, mid
        else:
            hi = mid
    return CapacityResult("load", budget_s, best, probes, "knee")


def find_node_capacity(
    config: ServiceConfig,
    *,
    budget_s: float,
    lo: int = 4,
    hi: int = 128,
    probe_arrivals: int | None = None,
) -> CapacityResult:
    """Smallest fabric (node count) serving the stream within budget.

    ``config.rate`` must be set: with a fixed per-port rate, adding
    nodes adds capacity (under load-derived rates the rate would shrink
    to cancel the extra nodes and the search would be meaningless).
    Returns the smallest passing node count (None if even ``hi``
    breaches).
    """
    positive("budget_s", budget_s)
    at_least("lo", lo, 2)
    at_least("hi", hi, lo)
    if config.rate is None:
        raise ValueError(
            "node search needs an explicit config.rate (a load-derived "
            "rate would re-absorb any node count)"
        )

    def at(n: int) -> ServiceConfig:
        cfg = replace(config, arrival=replace(config.arrival, n_ports=n))
        if probe_arrivals is not None:
            cfg = replace(
                cfg, arrival=replace(cfg.arrival, max_arrivals=probe_arrivals)
            )
        return cfg

    probes: list[CapacityProbe] = []
    hi_probe = _probe(at(hi), budget_s, hi)
    probes.append(hi_probe)
    if not hi_probe.ok:
        return CapacityResult("nodes", budget_s, None, probes, "none-ok")
    lo_probe = _probe(at(lo), budget_s, lo)
    probes.append(lo_probe)
    if lo_probe.ok:
        return CapacityResult("nodes", budget_s, lo, probes, "all-ok")
    best = hi
    low, high = lo, hi  # low breaches, high passes
    while high - low > 1:
        mid = (low + high) // 2
        p = _probe(at(mid), budget_s, mid)
        probes.append(p)
        if p.ok:
            best, high = mid, mid
        else:
            low = mid
    return CapacityResult("nodes", budget_s, best, probes, "knee")
