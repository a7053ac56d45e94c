"""The benchmark's four workloads: inputs, one op, and its checks.

Every workload turns the benchmark seed into a list of inputs
(:meth:`make_inputs`), runs one op on one input (:meth:`op`, the only
timed part) and checks the op's outputs against the model's invariants
(:meth:`check`).  Ops cycle over the inputs and ``op_s`` averages over
them, so the inputs' mean cost must not depend on the seed: the join
workloads draw three hot keys (the key moves the hash plan's epoch
count by a factor of three); ``trace-replay`` replays fixed reference
mixes whose ports the seed relabels; ``serve-overload`` draws 32
arrival streams, enough for their mean cost to settle.  The dataclass
fields are the sizes the smoke tests shrink; everything else about a
workload is fixed.

The op calls the program only through public entry points, looked up
as module or class attributes at call time so the tracer's wrappers
(``perf_trace.ENTRY_POINTS``) see every call.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro.network.analysis as analysis
import repro.network.bounds as bounds
from repro.core import CCF
from repro.experiments import hotpath
from repro.network import CoflowSimulator, Fabric, Flow
from repro.network.schedulers import make_scheduler
from repro.service.loop import ServiceConfig, run_service
from repro.workloads.analytic import AnalyticJoinWorkload
from repro.workloads.coflowmix import CoflowMixConfig, generate_coflow_mix

#: Relative tolerance of the floating-point invariant checks.
REL_TOL = 1e-9

#: Simulator wall-clock watchdog: an op that trips it counts as failed.
WATCHDOG_S = 60.0

#: Scale factor of both join workloads (Fig. 5).
SCALE_FACTOR = 600.0

#: Hot keys the seed draws for the join workloads.
N_HOT_KEYS = 3

#: Arrival rate of the ``trace-replay`` reference mixes.
ARRIVAL_RATE = 40.0

#: Offered load and admission watermark of the ``serve-overload`` drains.
SERVE_LOAD = 2.0
SERVE_WATERMARK_S = 10.0


@dataclass
class Outcome:
    """What :meth:`check` found out about one op.

    ``quality`` holds the op's deterministic results; ops on the same
    input, traced or not, must reproduce them bit for bit.  ``counts``
    holds counters read from the program's own results.
    """

    quality: dict[str, float]
    problems: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)


def sub_seed(seed: int, index: int) -> int:
    """An independent seed for input ``index`` of a run seeded ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _relabel(coflows: list, perm: np.ndarray) -> list:
    """``coflows`` with port ``i`` renamed ``perm[i]``."""
    return [
        dataclasses.replace(c, flows=[
            Flow(src=int(perm[f.src]), dst=int(perm[f.dst]), volume=f.volume)
            for f in c.flows
        ])
        for c in coflows
    ]


def _join_inputs(n_nodes: int, seed: int) -> list[AnalyticJoinWorkload]:
    hot_keys = np.random.default_rng(seed).integers(1, 1_000_000, N_HOT_KEYS)
    return [AnalyticJoinWorkload(
        n_nodes=n_nodes, scale_factor=SCALE_FACTOR,
        zipf_s=0.8, skew=0.2, skewed_key=int(key),
    ) for key in hot_keys]


@dataclass
class JoinPlan:
    """One Fig. 5 point: hash, mini and ccf plans at SF 600."""

    n_nodes: int = 250
    name = "join-plan"
    units = {"cct_s": "s", "traffic_gb": "GB"}

    def make_inputs(self, seed: int) -> list[AnalyticJoinWorkload]:
        return _join_inputs(self.n_nodes, seed)

    def op(self, workload: AnalyticJoinWorkload) -> Any:
        comparison = CCF().compare(workload)
        read = {s: (comparison.traffic(s), comparison.cct(s))
                for s in comparison.strategies}
        return comparison, read

    def check(self, workload: AnalyticJoinWorkload, raw: Any) -> Outcome:
        comparison, read = raw
        quality = {f"{s}_{k}": v for s, (traffic, cct) in read.items()
                   for k, v in (("traffic_b", traffic), ("cct_s", cct))}
        quality["cct_s"] = read["ccf"][1]
        quality["traffic_gb"] = read["ccf"][0] / 1e9
        out = Outcome(quality)
        for s, plan in comparison.plans.items():
            model = plan.model
            try:
                model.validate_assignment(plan.dest)
            except ValueError as exc:
                out.problems.append(f"{s}: invalid assignment: {exc}")
                continue
            bound = model.bottleneck_lower_bound()
            if plan.bottleneck_bytes < bound * (1 - REL_TOL):
                out.problems.append(
                    f"{s}: bottleneck {plan.bottleneck_bytes} below the "
                    f"lower bound {bound}")
        return out


@dataclass
class JoinShuffle:
    """The ``ccf plan --out`` -> ``ccf simulate`` round trip."""

    n_nodes: int = 25
    name = "join-shuffle"
    units = {"cct_s": "s"}

    def make_inputs(self, seed: int) -> list[AnalyticJoinWorkload]:
        return _join_inputs(self.n_nodes, seed)

    def op(self, workload: AnalyticJoinWorkload) -> Any:
        runs = []
        for strategy in ("hash", "mini", "ccf"):
            plan = CCF().plan(workload, strategy)
            coflow = plan.to_coflow()
            sim = CoflowSimulator(
                Fabric(self.n_nodes, rate=plan.model.rate),
                make_scheduler("sebf"),
                wall_clock_budget_s=WATCHDOG_S,
            )
            runs.append((strategy, plan, sim.run([coflow])))
        return runs

    def check(self, workload: AnalyticJoinWorkload, raw: Any) -> Outcome:
        out = Outcome({})
        for strategy, plan, result in raw:
            if len(result.ccts) != 1 or result.failed_coflows:
                out.problems.append(f"{strategy}: the coflow did not complete")
                continue
            simulated = result.max_cct
            out.quality[f"{strategy}_cct_s"] = simulated
            if not _close(simulated, plan.cct):
                out.problems.append(
                    f"{strategy}: simulated CCT {simulated!r} != plan CCT "
                    f"{plan.cct!r}")
        out.quality["cct_s"] = out.quality.get("ccf_cct_s", float("nan"))
        return out


@dataclass
class TraceReplay:
    """A fixed coflow trace replayed under sebf and wcct5, plus the LP bound.

    The trace is ``n_inputs`` reference mixes drawn by
    ``generate_coflow_mix`` from the fixed seeds ``0 .. n_inputs - 1``;
    the benchmark seed relabels each mix's ports by a random
    permutation.  Replay cost differs by a factor of four between draws
    of the same size, so drawing the mixes themselves from the seed
    would make the seed, not the program, set ``op_s``.
    """

    n_ports: int = 50
    n_coflows: int = 12
    n_inputs: int = 4
    name = "trace-replay"
    units = {"cct_s": "s", "gap": "ratio"}

    def make_inputs(self, seed: int) -> list[tuple[list, Fabric]]:
        rng = np.random.default_rng(seed)
        fabric = Fabric(self.n_ports, rate=1.0)
        return [(_relabel(self._mix(i), rng.permutation(self.n_ports)), fabric)
                for i in range(self.n_inputs)]

    def _mix(self, seed: int) -> list:
        return generate_coflow_mix(CoflowMixConfig(
            n_ports=self.n_ports, n_coflows=self.n_coflows,
            arrival_rate=ARRIVAL_RATE, seed=seed,
        ))

    def op(self, inp: tuple[list, Fabric]) -> Any:
        coflows, fabric = inp
        runs = {}
        for name in ("sebf", "wcct5"):
            sim = CoflowSimulator(
                fabric, make_scheduler(name), wall_clock_budget_s=WATCHDOG_S)
            result = sim.run(coflows)
            runs[name] = (result, analysis.analyze(result, coflows, fabric))
        return runs, bounds.weighted_cct_lower_bound(coflows, fabric)

    def check(self, inp: tuple[list, Fabric], raw: Any) -> Outcome:
        coflows, fabric = inp
        runs, bound = raw
        rate = float(fabric.egress_rates.min())
        out = Outcome({"lp_bound": bound.lower_bound})
        for name, (result, report) in runs.items():
            if len(result.ccts) != len(coflows) or result.failed_coflows:
                out.problems.append(f"{name}: not every coflow completed")
                continue
            for c in coflows:
                isolated = c.bottleneck(fabric.n_ports, rate)
                if result.ccts[c.coflow_id] < isolated * (1 - REL_TOL):
                    out.problems.append(
                        f"{name}: coflow {c.coflow_id} CCT below its "
                        f"isolated bottleneck {isolated}")
            weighted = sum(c.weight * result.completion_times[c.coflow_id]
                           for c in coflows)
            if weighted < bound.lower_bound * (1 - REL_TOL):
                out.problems.append(
                    f"{name}: sum w*C {weighted} below the LP bound "
                    f"{bound.lower_bound}")
            out.quality[f"{name}_mean_cct_s"] = report.average_cct
            out.quality[f"{name}_weighted_c"] = weighted
        out.quality["cct_s"] = out.quality.get("sebf_mean_cct_s", float("nan"))
        out.quality["gap"] = bound.gap(out.quality.get("wcct5_weighted_c", float("nan")))
        return out


@dataclass
class ServeOverload:
    """An overloaded ``run_service`` drain on the committed fleet recipe.

    Each input is built by ``repro.experiments.hotpath``'s fleet recipe
    (fair, bounded-queue, fast retry backoff) from the
    ``fleet/fair/facebook/p64u60a1200l2w45q1024s5`` case, with ports and
    users cut to an eighth, the stream to 30 arrivals and the watermark
    to 10 s, so that deferral re-polls still make most epochs and
    shedding most of the overload.  The seed draws ``n_inputs`` arrival
    streams; one stream's drain time differs from the next by about a
    quarter, so a run averages 32.
    """

    n_ports: int = 8
    users: int = 8
    max_arrivals: int = 30
    n_inputs: int = 32
    name = "serve-overload"
    units = {"cct_s": "s", "shed_frac": "ratio"}

    def make_inputs(self, seed: int) -> list[ServiceConfig]:
        return [
            dataclasses.replace(
                hotpath._fleet_config(hotpath.FleetSpec(
                    "fair", "facebook", self.n_ports, self.users,
                    self.max_arrivals, SERVE_LOAD, SERVE_WATERMARK_S, 1024,
                    sub_seed(seed, i),
                ), batch_events=True),
                wall_clock_budget_s=WATCHDOG_S,
            )
            for i in range(self.n_inputs)
        ]

    def op(self, config: ServiceConfig) -> Any:
        return run_service(config)

    def check(self, config: ServiceConfig, raw: Any) -> Outcome:
        report, result, _controller = raw
        out = Outcome(
            {"cct_s": report.reported_p95, "shed_frac": report.shed_fraction,
             "makespan_s": report.makespan, "n_epochs": report.n_epochs},
            counts={"deferrals": report.deferrals, "shed": report.shed},
        )
        if report.arrivals != report.completed + report.shed + report.aborted:
            out.problems.append(
                f"arrivals {report.arrivals} != completed {report.completed}"
                f" + shed {report.shed} + aborted {report.aborted}")
        if report.admitted != report.completed + report.aborted:
            out.problems.append("an admitted coflow neither completed nor aborted")
        if report.backlog_end_s != 0.0:
            out.problems.append(f"backlog {report.backlog_end_s} s at drain")
        return out


WORKLOADS = {w.name: w for w in (JoinPlan(), JoinShuffle(), TraceReplay(), ServeOverload())}
