"""Benchmark harness (``ccf bench``): fleets, trace replays and plans.

Runs large-fleet service-mode cases (10^4+ offered flows through
``run_service`` under overload with a bounded-queue admission policy)
twice: with event-horizon batching off (``batch_events=False``, a fresh
allocation every epoch) and on (the default, which reuses a rate
allocation while the scheduler declares it valid).  Every run checks
that the two sides produce **bit-identical** ``SimulationResult``s --
same CCT floats, same epoch counts, same failure logs -- so the speedup
is a pure performance win.  It also replays the paper-scale Facebook
coflow mix under the clairvoyant disciplines, where every epoch
allocates afresh.  Last, it plans the paper's Fig. 5 workload at full
scale, where the skew model build and Algorithm 1 do all the work, and
evaluates the plan.

The emitted ``BENCH_simulator.json`` has four sections:

``fleet``
    Per case: the off/on speedup of each of three alternating off/on
    pairs, their median ``speedup``, the median wall time and
    epochs/sec of each side and the bit-identity verdict over all six
    runs.
``trace``
    Per replay (200 coflows over 50 ports under sebf and wcct5): the
    absolute ``wall_s``, ``n_epochs`` and a sha256 ``fingerprint`` of
    the CCTs and completion times.
``plan``
    Per ``CCF().plan`` case (n = 250 and 1000 at SF 600): the absolute
    ``wall_s`` of the plan and ``eval_s`` of its evaluation, the
    tracemalloc ``peak_mb`` of both and a sha256 ``fingerprint`` of T
    and the assignment.
``summary``
    Aggregates of the fleet cases used by the CI regression gate.

The harness is deterministic (fixed arrival seeds and retry cadence),
so two runs on the same machine differ only by timer noise;
``check_regression`` compares each fleet case's off/on speedup against
a committed baseline with a configurable tolerance (the ratio cancels
machine-speed drift that absolute epochs/sec cannot), and each trace
replay's epochs and fingerprint, and each plan's fingerprint, bit for
bit when the baseline was made on the same platform.  Absolute
per-layer timings of the whole pipeline live in ``perfbench/``.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.core.framework import CCF
from repro.core.resilience import Backoff
from repro.network import CoflowSimulator, Fabric
from repro.network.schedulers import make_scheduler
from repro.service.arrivals import ArrivalConfig, ArrivalStream
from repro.service.loop import ServiceConfig, run_service
from repro.workloads.analytic import AnalyticJoinWorkload
from repro.workloads.coflowmix import CoflowMixConfig, generate_coflow_mix

__all__ = [
    "FleetSpec",
    "fleet_cases",
    "run_fleet_case",
    "TraceSpec",
    "trace_cases",
    "run_trace_case",
    "PlanSpec",
    "plan_cases",
    "run_plan_case",
    "run_bench",
    "check_regression",
    "load_baseline",
]


@dataclass(frozen=True)
class FleetSpec:
    """One large-fleet service case: an overloaded ``run_service`` run.

    The recipe that makes these cases meaningful: a fast-sharing
    discipline whose allocation stays valid between fleet changes
    (``fair``), a ``bounded-queue`` admission policy with a watermark
    well below the backlog the overload builds, and a fast-cadence
    retry backoff, so most epochs are deferral re-polls on an unchanged
    fleet -- exactly the epochs the event-horizon cache elides.
    """

    scheduler: str
    size_mix: str
    n_ports: int
    users: int
    max_arrivals: int
    load: float
    watermark_s: float
    queue_limit: int
    seed: int

    @property
    def key(self) -> str:
        return (
            f"fleet/{self.scheduler}/{self.size_mix}/"
            f"p{self.n_ports}u{self.users}a{self.max_arrivals}"
            f"l{self.load:g}w{self.watermark_s:g}"
            f"q{self.queue_limit}s{self.seed}"
        )


#: Deferral retry cadence for every fleet case: many cheap re-polls
#: (the workload the horizon cache targets) instead of the policy's
#: default patient exponential backoff.
_FLEET_BACKOFF = dict(
    max_attempts=60,
    base_delay=0.1,
    multiplier=1.2,
    max_delay=1.0,
    jitter=0.1,
)


def fleet_cases(*, quick: bool = False) -> list[FleetSpec]:
    """The large-fleet matrix (10^4+ offered flows per full case).

    The quick (CI smoke) case is also part of the full set, so its key
    exists in a full baseline.
    """
    quick_cases = [
        FleetSpec(
            "fair", "facebook", n_ports=32, users=40, max_arrivals=260,
            load=1.8, watermark_s=30.0, queue_limit=256, seed=11,
        )
    ]
    if quick:
        return quick_cases
    full_cases = [
        FleetSpec(
            "fair", "facebook", n_ports=96, users=80, max_arrivals=1000,
            load=1.8, watermark_s=90.0, queue_limit=1024, seed=7,
        ),
        FleetSpec(
            "fair", "facebook", n_ports=64, users=60, max_arrivals=1200,
            load=2.0, watermark_s=45.0, queue_limit=1024, seed=5,
        ),
        FleetSpec(
            "fair", "facebook", n_ports=128, users=110, max_arrivals=1300,
            load=1.9, watermark_s=75.0, queue_limit=1024, seed=17,
        ),
        FleetSpec(
            "fair", "zipf", n_ports=96, users=90, max_arrivals=1300,
            load=2.0, watermark_s=75.0, queue_limit=2048, seed=3,
        ),
        # Deep-deferral regime: the watermark is far below the backlog
        # the overload builds, so admission re-polls dominate the epoch
        # count and rate reuse pays off most.
        FleetSpec(
            "fair", "facebook", n_ports=80, users=70, max_arrivals=1400,
            load=2.1, watermark_s=35.0, queue_limit=1024, seed=13,
        ),
        FleetSpec(
            "fair", "facebook", n_ports=64, users=64, max_arrivals=1500,
            load=2.2, watermark_s=30.0, queue_limit=1536, seed=23,
        ),
    ]
    return quick_cases + full_cases


def _fleet_config(spec: FleetSpec, *, batch_events: bool) -> ServiceConfig:
    return ServiceConfig(
        arrival=ArrivalConfig(
            n_ports=spec.n_ports,
            users=spec.users,
            max_arrivals=spec.max_arrivals,
            seed=spec.seed,
            size_mix=spec.size_mix,
        ),
        load=spec.load,
        scheduler=spec.scheduler,
        policy="bounded-queue",
        policy_params={
            "watermark_s": spec.watermark_s,
            "queue_limit": spec.queue_limit,
            "backoff": Backoff(**_FLEET_BACKOFF),
        },
        batch_events=batch_events,
    )


def _fingerprint(result) -> dict:
    """Everything that must match bit-for-bit between the two sides."""
    return {
        "ccts": dict(sorted(result.ccts.items())),
        "completion_times": dict(sorted(result.completion_times.items())),
        "n_epochs": result.n_epochs,
        "failed_coflows": sorted(result.failed_coflows),
        "failures": [
            (r.kind, r.time, r.flows) for r in result.failures
        ],
    }


#: Alternating off/on pairs timed per fleet case.
_FLEET_PAIRS = 3


def run_fleet_case(spec: FleetSpec) -> dict:
    """Time ``batch_events`` off vs on on one fleet case.

    ``n_flows`` counts the *offered* flows of the arrival stream --
    admission sheds some of them, identically on both sides.  On a
    shared machine one off/on draw moves by more than the gate's 30 %
    tolerance with the load (2.4x, 3.5x and 4.4x in three runs of the
    same code), so the case times ``_FLEET_PAIRS`` alternating off/on pairs
    and reports the median of the per-pair speedups, which one slow
    pair cannot move.  The per-side ``wall_s`` and ``epochs_per_sec``
    are medians over the pairs too.  ``bit_identical`` holds only when
    every run, on either side, produced the same results.
    """
    out: dict = {
        "scheduler": spec.scheduler,
        "size_mix": spec.size_mix,
        "n_ports": spec.n_ports,
        "users": spec.users,
        "max_arrivals": spec.max_arrivals,
        "load": spec.load,
        "watermark_s": spec.watermark_s,
        "queue_limit": spec.queue_limit,
        "seed": spec.seed,
    }
    arrival = _fleet_config(spec, batch_events=True).arrival
    out["n_flows"] = int(sum(len(c) for c in ArrivalStream(arrival)))
    walls: dict[str, list[float]] = {"off": [], "on": []}
    prints = []
    for _ in range(_FLEET_PAIRS):
        for label, batch in (("off", False), ("on", True)):
            config = _fleet_config(spec, batch_events=batch)
            t0 = time.perf_counter()
            report, result, _controller = run_service(config)
            walls[label].append(time.perf_counter() - t0)
            prints.append(_fingerprint(result))
    n_epochs = prints[-1]["n_epochs"]
    for label, times in walls.items():
        wall = float(np.median(times))
        out[label] = {
            "wall_s": round(wall, 4),
            "epochs_per_sec": round(n_epochs / wall, 2),
        }
    out["n_epochs"] = n_epochs
    out["completed"] = report.completed
    out["shed"] = report.shed
    out["deferrals"] = report.deferrals
    out["bit_identical"] = all(fp == prints[0] for fp in prints)
    speedups = [off / on for off, on in zip(walls["off"], walls["on"])]
    out["pair_speedups"] = [round(s, 3) for s in speedups]
    out["speedup"] = round(float(np.median(speedups)), 3)
    return out


#: The synthetic Facebook mix every trace case replays, on an idle
#: fabric of this many ports at the default port rate.
_TRACE_MIX = {"n_ports": 50, "arrival_rate": 40.0, "seed": 0}


@dataclass(frozen=True)
class TraceSpec:
    """One replay of the first ``n_coflows`` coflows of ``_TRACE_MIX``.

    Clairvoyant disciplines re-rank as volumes drain, so every epoch
    allocates afresh: the case times ``allocate`` (ordering, MADD and
    the backfill waterfill) at the scale the paper's comparisons run.
    """

    scheduler: str
    n_coflows: int

    @property
    def key(self) -> str:
        m = _TRACE_MIX
        return (
            f"trace/{self.scheduler}/facebook/p{m['n_ports']}"
            f"c{self.n_coflows}r{m['arrival_rate']:g}s{m['seed']}"
        )


def trace_cases(*, quick: bool = False) -> list[TraceSpec]:
    """The 200-coflow replays; the quick case is also in the full set."""
    quick_cases = [TraceSpec("sebf", n_coflows=40)]
    if quick:
        return quick_cases
    return quick_cases + [
        TraceSpec("sebf", n_coflows=200),
        TraceSpec("wcct5", n_coflows=200),
    ]


def run_trace_case(spec: TraceSpec) -> dict:
    """Time one replay and fingerprint its results (one draw)."""
    coflows = generate_coflow_mix(
        CoflowMixConfig(n_coflows=spec.n_coflows, **_TRACE_MIX)
    )
    fabric = Fabric(_TRACE_MIX["n_ports"])
    sim = CoflowSimulator(fabric, make_scheduler(spec.scheduler))
    t0 = time.perf_counter()
    result = sim.run(coflows)
    wall = time.perf_counter() - t0
    times = repr((
        sorted(result.ccts.items()), sorted(result.completion_times.items())
    ))
    return {
        "scheduler": spec.scheduler,
        "n_coflows": spec.n_coflows,
        **_TRACE_MIX,
        "n_flows": sum(c.width for c in coflows),
        "wall_s": round(wall, 4),
        "n_epochs": result.n_epochs,
        "fingerprint": hashlib.sha256(times.encode()).hexdigest(),
    }


@dataclass(frozen=True)
class PlanSpec:
    """One ``CCF().plan(w, "ccf")`` of the Fig. 5 workload at ``n_nodes``.

    The workload keeps the paper's defaults: SF 600, zipf 0.8, 20 %
    skew and ``p = 15 n`` partitions; the plan uses the skew-handled
    model.
    """

    n_nodes: int

    @property
    def key(self) -> str:
        return f"plan/ccf/n{self.n_nodes}sf600"


def plan_cases(*, quick: bool = False) -> list[PlanSpec]:
    """The paper-scale plan; the quick n = 250 case is also in the full set."""
    quick_cases = [PlanSpec(250)]
    return quick_cases if quick else quick_cases + [PlanSpec(1000)]


def run_plan_case(spec: PlanSpec) -> dict:
    """Time one plan and its evaluation, then trace both in a second run.

    tracemalloc slows every allocation, so the wall times come from an
    untraced run and the peak from a traced one; both plan and evaluate
    (``plan.metrics``) the same workload, and the fingerprint covers T
    and ``dest`` of the first.
    """
    workload = AnalyticJoinWorkload(n_nodes=spec.n_nodes)
    t0 = time.perf_counter()
    plan = CCF().plan(workload, "ccf")
    t1 = time.perf_counter()
    plan.metrics
    t2 = time.perf_counter()
    tracemalloc.start()
    try:
        CCF().plan(workload, "ccf").metrics
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    digest = hashlib.sha256(repr(plan.bottleneck_bytes).encode())
    digest.update(plan.dest.astype(np.int64).tobytes())
    return {
        "n_nodes": spec.n_nodes,
        "partitions": int(workload.partitions),
        "scale_factor": workload.scale_factor,
        "wall_s": round(t1 - t0, 4),
        "eval_s": round(t2 - t1, 4),
        "peak_mb": round(peak / 1e6, 1),
        "fingerprint": digest.hexdigest(),
    }


def _geomean(values: Sequence[float]) -> float:
    return float(np.exp(np.mean(np.log(values)))) if values else 0.0


def run_bench(
    *,
    quick: bool = False,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Run the harness and return the BENCH_simulator.json payload."""
    say = progress or (lambda _msg: None)
    fleet: dict[str, dict] = {}
    for spec in fleet_cases(quick=quick):
        say(f"case {spec.key} ...")
        fleet[spec.key] = run_fleet_case(spec)
    trace: dict[str, dict] = {}
    for spec in trace_cases(quick=quick):
        say(f"case {spec.key} ...")
        trace[spec.key] = run_trace_case(spec)
    plan: dict[str, dict] = {}
    for spec in plan_cases(quick=quick):
        say(f"case {spec.key} ...")
        plan[spec.key] = run_plan_case(spec)
    from repro.obs.header import repro_header

    speedups = [c["speedup"] for c in fleet.values()]
    return {
        "schema": 4,
        "generated_by": "ccf bench" + (" --quick" if quick else ""),
        "repro": repro_header(),
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "config": {"quick": quick},
        "fleet": fleet,
        "trace": trace,
        "plan": plan,
        "summary": {
            "n_cases": len(fleet),
            "all_bit_identical": all(
                c["bit_identical"] for c in fleet.values()
            ),
            "min_speedup": min(speedups),
            "max_speedup": max(speedups),
            "geomean_speedup": round(_geomean(speedups), 3),
        },
    }


def check_regression(
    current: dict,
    baseline: dict,
    *,
    tolerance: float = 0.3,
    say: Callable[[str], None] | None = None,
) -> list[str]:
    """Compare a payload against a baseline: fleet speedups, fingerprints.

    Returns a list of human-readable problems (empty = gate passes).
    Absolute epochs/sec tracks the machine's clock as much as the code
    (a loaded CI runner measures 30%+ below an idle one on identical
    trees), so the gate compares the ``batch_events`` off/on *speedup*
    instead: both sides are timed seconds apart in the same process, so
    machine-speed drift cancels while a slowdown of the batched path
    alone still shows.  A case regresses when its speedup (the median
    of its pairs, see :func:`run_fleet_case`) falls more than
    ``tolerance`` (fraction) below the baseline's for the same key; a
    broken bit-identity verdict is always a failure, and so is a
    payload none of whose keys appear in the baseline (the gate would
    otherwise pass having compared nothing).

    Trace replays sharing a key must match the baseline's ``n_epochs``
    and ``fingerprint`` exactly, and plans sharing a key its
    ``fingerprint`` -- but only when the baseline's ``platform``
    (python, numpy, machine) is the current one, since another numpy may
    round differently.  Otherwise, or when the baseline predates the
    section, ``say`` (default ``print``) gets one line saying that
    section was not compared.
    """
    problems: list[str] = []
    base_cases = baseline.get("fleet", {})
    current_cases = current.get("fleet", {})
    matched = 0
    for key, case in current_cases.items():
        if not case.get("bit_identical", False):
            problems.append(f"{key}: batch_events off/on results differ")
        base = base_cases.get(key)
        if base is None:
            continue
        matched += 1
        cur_speedup = case["speedup"]
        base_speedup = base["speedup"]
        if cur_speedup < base_speedup * (1.0 - tolerance):
            problems.append(
                f"{key}: speedup {cur_speedup:.2f}x is more than "
                f"{tolerance:.0%} below baseline "
                f"{base_speedup:.2f}x "
                f"({case['on']['epochs_per_sec']:.1f} epochs/s now "
                f"vs {base['on']['epochs_per_sec']:.1f} recorded)"
            )
    if not matched:
        problems.append(
            f"none of the {len(current_cases)} current case(s) has a key "
            f"in the baseline's {len(base_cases)}: nothing was compared"
        )
    say = say or print
    return (
        problems
        + _exact_problems("trace", ("n_epochs", "fingerprint"),
                          current, baseline, say)
        + _exact_problems("plan", ("fingerprint",), current, baseline, say)
    )


def _exact_problems(
    section: str,
    fields: tuple[str, ...],
    current: dict,
    baseline: dict,
    say: Callable[[str], None],
) -> list[str]:
    """The bit-for-bit half of :func:`check_regression` for one section."""
    cur, base = current.get(section, {}), baseline.get(section)
    if not cur:
        return []
    if base is None:
        say(f"{section}: not compared (the baseline has no {section} section)")
        return []
    if baseline.get("platform") != current.get("platform"):
        say(
            f"{section}: not compared (baseline platform "
            f"{baseline.get('platform')} is not {current.get('platform')})"
        )
        return []
    shared = [key for key in cur if key in base]
    if not shared:
        return [
            f"none of the {len(cur)} current {section} case(s) has a key "
            f"in the baseline's {len(base)}: nothing was compared"
        ]
    return [
        f"{key}: {field} {cur[key][field]} != baseline {base[key][field]}"
        for key in shared
        for field in fields
        if cur[key][field] != base[key][field]
    ]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


#: What ``check_regression`` reads of each baseline case, by section.
_BASELINE_FIELDS: dict[str, dict[tuple[str, ...], Callable]] = {
    "fleet": {
        ("speedup",): _is_number,
        ("on", "epochs_per_sec"): _is_number,
    },
    "trace": {
        ("n_epochs",): lambda x: isinstance(x, int) and _is_number(x),
        ("fingerprint",): lambda x: isinstance(x, str),
    },
    "plan": {
        ("fingerprint",): lambda x: isinstance(x, str),
    },
}


def _baseline_problem(data) -> str | None:
    """What keeps ``data`` from being a baseline ``check_regression``
    can read (``trace`` and ``plan`` are optional), or ``None``."""
    if not isinstance(data, dict):
        return f"expected a JSON object, got {type(data).__name__}"
    for name, fields in _BASELINE_FIELDS.items():
        if name != "fleet" and name not in data:
            continue
        cases = data.get(name)
        if not isinstance(cases, dict):
            return f"'{name}' must map case keys to cases"
        for key, case in cases.items():
            for path, ok in fields.items():
                value = case
                for part in path:
                    if isinstance(value, dict):
                        value = value.get(part)
                    else:
                        value = None
                if not ok(value):
                    return f"{name} case {key!r} has a bad {'.'.join(path)!r}"
    return None


def load_baseline(path: str | Path) -> dict:
    """Read a committed payload; ``ValueError`` if its shape is wrong."""
    data = json.loads(Path(path).read_text())
    problem = _baseline_problem(data)
    if problem:
        raise ValueError(f"{path}: {problem}")
    return data
