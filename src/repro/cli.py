"""``ccf`` command-line interface: run paper experiments from the shell.

Examples
--------
.. code-block:: console

    $ ccf list
    $ ccf run motivating
    $ ccf run fig5 --quick
    $ ccf run fig7 --scale-factor 60 --nodes 100
    $ ccf sweep fig5 --jobs 4
    $ ccf sweep fig7 --quick --jobs 2 --cache-dir .ccf-cache
    $ ccf sweep psweep --resume
    $ ccf sweep tournament --quick --jobs 2
    $ ccf tournament --quick --json
    $ ccf plan --nodes 50 --scale-factor 3 --strategy ccf --out plan.json
    $ ccf simulate plan.json --scheduler sebf
    $ ccf simulate plan.json --fail-port 0 --fail-at 1 --recover-at 5 \\
          --recovery replan
    $ ccf simulate plan.json --chaos-mtbf 3 --chaos-mttr 2 --recovery retry
    $ ccf simulate plan.json --trace run.jsonl --timeline
    $ ccf simulate plan.json --trace run.trace.json --trace-format chrome
    $ ccf stats run.jsonl
    $ ccf gantt --from-trace run.jsonl
    $ ccf serve --arrivals 2000 --load 0.7 --slo 60 --trace serve.jsonl
    $ ccf serve --load 1.6 --policy load-shedding --slo 60
    $ ccf serve --chaos-mtbf 20 --chaos-mttr 2 --recovery retry
    $ ccf capacity load --budget 60 --probe-arrivals 150
    $ ccf capacity nodes --budget 60 --rate 4e6 --probe-arrivals 150
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.experiments.figures import (
    QUICK_N_NODES,
    QUICK_SCALE_FACTOR,
    SweepConfig,
    run_fig5_nodes,
    run_fig6_zipf,
    run_fig7_skew,
)
from repro.core.resilience import ResilienceError
from repro.experiments.registry import EXPERIMENTS, SWEEPS, run_experiment
from repro.network.schedulers import SCHEDULER_NAMES

__all__ = [
    "main",
    "build_parser",
    "EXIT_OK",
    "EXIT_FAILURE",
    "EXIT_USAGE",
    "EXIT_WATCHDOG",
    "EXIT_SLO_BREACH",
    "EXIT_INTERRUPTED",
    "EXIT_CODES",
]

#: The CLI's exit-code contract, shared by every subcommand.  The docs
#: table in docs/architecture.md mirrors this dict and a test asserts
#: they stay in sync.
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_WATCHDOG = 3
EXIT_SLO_BREACH = 4
EXIT_INTERRUPTED = 130

EXIT_CODES: dict[int, str] = {
    EXIT_OK: "success",
    EXIT_FAILURE: "run failure (failed coflows, FAIL verdict, regression)",
    EXIT_USAGE: "usage error (bad flags, bad configuration)",
    EXIT_WATCHDOG: "watchdog abort (crash report written)",
    EXIT_SLO_BREACH: "SLO breach (serve: p95 CCT over budget)",
    EXIT_INTERRUPTED: "interrupted (128 + SIGINT)",
}

#: Sweeps that accept a SweepConfig (others run with fixed defaults).
_CONFIGURABLE = {
    "fig5": lambda cfg: run_fig5_nodes(cfg),
    "fig6": lambda cfg: run_fig6_zipf(cfg),
    "fig7": lambda cfg: run_fig7_skew(cfg),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="ccf",
        description="Reproduce the CCF paper's evaluation (ICPP 2017).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment and print its table")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument(
        "--quick",
        action="store_true",
        help=f"reduced scale (SF={QUICK_SCALE_FACTOR}, {QUICK_N_NODES} nodes) "
        "for sweeps",
    )
    run.add_argument(
        "--scale-factor", type=float, default=None, help="TPC-H scale factor"
    )
    run.add_argument(
        "--nodes", type=int, default=None, help="number of nodes (fig6/fig7 sweeps)"
    )
    run.add_argument(
        "--markdown", action="store_true", help="render the table as markdown"
    )
    run.add_argument(
        "--csv", action="store_true", help="render the table as CSV"
    )

    sweep = sub.add_parser(
        "sweep",
        help="run a grid experiment through the parallel, cache-aware "
        "engine (bit-identical to 'ccf run', but cells fan out over "
        "worker processes and completed cells are memoized on disk)",
    )
    sweep.add_argument("experiment", choices=sorted(SWEEPS))
    sweep.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1 = serial fallback path)",
    )
    sweep.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="cell-cache root (default: $CCF_CACHE_DIR or "
        "~/.cache/ccf/sweeps)",
    )
    sweep.add_argument(
        "--no-cache", action="store_true",
        help="skip cache lookup and write-back entirely",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep: require the cache directory "
        "to exist and report how many cells were restored from it",
    )
    sweep.add_argument(
        "--quick", action="store_true",
        help="the experiment's reduced smoke-test grid "
        f"(figure sweeps: SF={QUICK_SCALE_FACTOR}, {QUICK_N_NODES} nodes)",
    )
    sweep.add_argument(
        "--scale-factor", type=float, default=None,
        help="TPC-H scale factor (figure sweeps only)",
    )
    sweep.add_argument(
        "--nodes", type=int, default=None,
        help="number of nodes (figure sweeps only)",
    )
    sweep.add_argument(
        "--markdown", action="store_true", help="render the table as markdown"
    )
    sweep.add_argument(
        "--csv", action="store_true", help="render the table as CSV"
    )
    sweep.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry failed cells up to N extra times with exponential "
        "backoff and deterministic jitter (default 0 = fail fast)",
    )
    sweep.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="hard wall-clock bound per cell attempt (default: unlimited)",
    )

    tournament = sub.add_parser(
        "tournament",
        help="rank every scheduling discipline on the weighted-CCT "
        "objective: run the tournament grid (schedulers x workload "
        "families x weight distributions) through the sweep engine and "
        "fold it into a scorecard with per-scheduler optimality gaps "
        "against the interval-indexed LP lower bound",
    )
    tournament.add_argument(
        "--quick", action="store_true",
        help="reduced smoke grid (10 ports, 10 coflows, facebook mix, "
        "two weight distributions; still every scheduler)",
    )
    tournament.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1 = serial fallback path)",
    )
    tournament.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="cell-cache root (default: $CCF_CACHE_DIR or "
        "~/.cache/ccf/sweeps)",
    )
    tournament.add_argument(
        "--no-cache", action="store_true",
        help="skip cache lookup and write-back entirely",
    )
    tournament.add_argument(
        "--full", action="store_true",
        help="also print the raw per-instance grid under the scorecard",
    )
    tournament.add_argument(
        "--json", action="store_true",
        help="emit {scorecard, grid} as JSON instead of tables",
    )
    tournament.add_argument(
        "--markdown", action="store_true",
        help="render the tables as markdown",
    )
    tournament.add_argument(
        "--csv", action="store_true",
        help="render the scorecard as CSV",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run the chaos campaign: named fault scenarios (fabric "
        "chaos, noisy estimates, worker kills, cache corruption, cell "
        "timeouts) executed through the supervised sweep engine and "
        "scored for resilience",
    )
    chaos.add_argument(
        "--quick", action="store_true",
        help="shrink the workload (the scenario set stays complete)",
    )
    chaos.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="sweep workers (default 2; worker-kill scenarios need >= 2)",
    )
    chaos.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="run only this scenario (repeatable; default: all)",
    )
    chaos.add_argument(
        "--seed", type=int, default=0,
        help="base seed for chaos schedules, noise and retry jitter",
    )
    chaos.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="cell-cache root (default: $CCF_CACHE_DIR or "
        "~/.cache/ccf/sweeps); cache-corruption scenarios corrupt "
        "their own entry here",
    )
    chaos.add_argument(
        "--no-cache", action="store_true",
        help="run cache-less (cache-corruption scenarios lose their "
        "target and quarantine nothing)",
    )
    chaos.add_argument(
        "--no-faults", action="store_true",
        help="leave platform faults dormant (simulated faults only)",
    )
    chaos.add_argument(
        "--report", type=str, default=None, metavar="PATH",
        help="also write a markdown report (tables + scorecard) to PATH",
    )
    chaos.add_argument(
        "--csv", action="store_true",
        help="render the scenario table as CSV on stdout",
    )
    chaos.add_argument(
        "--markdown", action="store_true",
        help="render the tables as markdown on stdout",
    )
    chaos.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="write the campaign's platform-event trace (retries, "
        "timeouts, crashes, quarantines) as JSONL to PATH",
    )
    chaos.add_argument(
        "--crash-dir", type=str, default="crash-reports", metavar="DIR",
        help="where WorkerCrash reports are written (default "
        "crash-reports/)",
    )
    chaos.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list the fault scenarios and exit",
    )

    plan = sub.add_parser(
        "plan", help="plan a synthetic join workload and export its coflow"
    )
    plan.add_argument("--nodes", type=int, default=50)
    plan.add_argument("--scale-factor", type=float, default=3.0)
    plan.add_argument("--zipf", type=float, default=0.8)
    plan.add_argument("--skew", type=float, default=0.2)
    plan.add_argument(
        "--strategy",
        choices=["hash", "mini", "ccf", "ccf-exact"],
        default="ccf",
    )
    plan.add_argument("--out", type=str, default=None, help="coflow JSON path")

    simulate = sub.add_parser(
        "simulate", help="run a coflow JSON file through the simulator"
    )
    simulate.add_argument("coflow_file", type=str)
    simulate.add_argument(
        "--scheduler",
        choices=list(SCHEDULER_NAMES),
        default="sebf",
    )
    simulate.add_argument(
        "--rate", type=float, default=128e6, help="port rate in bytes/s"
    )
    simulate.add_argument(
        "--recovery",
        choices=["abort", "retry", "replan"],
        default=None,
        help="flow-recovery policy (required with failure injection)",
    )
    simulate.add_argument(
        "--fail-port",
        type=int,
        action="append",
        default=None,
        metavar="PORT",
        help="kill this port mid-run (repeatable)",
    )
    simulate.add_argument(
        "--fail-at", type=float, default=1.0,
        help="failure time in seconds (with --fail-port)",
    )
    simulate.add_argument(
        "--recover-at", type=float, default=None,
        help="repair time in seconds (with --fail-port; default: never)",
    )
    simulate.add_argument(
        "--fail-direction",
        choices=["both", "ingress", "egress"],
        default="both",
        help="which side of the failed port dies",
    )
    simulate.add_argument(
        "--chaos-mtbf", type=float, default=None,
        help="enable random failures with this mean time between failures (s)",
    )
    simulate.add_argument(
        "--chaos-mttr", type=float, default=2.0,
        help="mean time to repair for chaos failures (s)",
    )
    simulate.add_argument(
        "--chaos-horizon", type=float, default=None,
        help="inject chaos failures only before this time (default: 10x MTBF)",
    )
    simulate.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for the chaos failure schedule",
    )
    simulate.add_argument(
        "--stage-policy",
        choices=["fail-job", "retry-stage", "replan-stage",
                 "fail", "retry", "replan"],
        default=None,
        help="job-level fault tolerance: treat each coflow as a stage and "
        "retry/replan failed attempts (needs a failure schedule; "
        "mutually exclusive with the flow-level --recovery)",
    )
    simulate.add_argument(
        "--estimate-noise", type=float, default=None, metavar="SIGMA",
        help="degrade the scheduler's view of remaining flow sizes with "
        "seeded lognormal noise of this sigma (true bytes still drain)",
    )
    simulate.add_argument(
        "--censor", type=float, default=0.0, metavar="FRAC",
        help="fraction of flows whose size the scheduler cannot see "
        "(with --estimate-noise; default 0)",
    )
    simulate.add_argument(
        "--noise-seed", type=int, default=0,
        help="seed for the estimate-noise draws",
    )
    simulate.add_argument(
        "--max-epochs", type=int, default=None, metavar="N",
        help="abort (with a crash report) after this many epochs "
        "(default 10,000,000)",
    )
    simulate.add_argument(
        "--wall-clock-budget", type=float, default=None, metavar="SECONDS",
        help="abort (with a crash report) when the run exceeds this much "
        "real time (default: unlimited)",
    )
    simulate.add_argument(
        "--stall-epochs", type=int, default=None, metavar="N",
        help="abort (with a crash report) after N consecutive epochs "
        "without simulation-clock progress (default 10,000; 0 disables)",
    )
    simulate.add_argument(
        "--crash-dir", type=str, default="crash-reports", metavar="DIR",
        help="where watchdog crash reports are written (default "
        "crash-reports/)",
    )
    simulate.add_argument(
        "--timeline", action="store_true",
        help="record the per-epoch timeline (SimulationResult.epochs is "
        "otherwise empty; memory grows with epochs)",
    )
    simulate.add_argument(
        "--timeline-limit", type=int, default=None, metavar="N",
        help="with --timeline, keep only the most recent N epochs "
        "(ring buffer) so long runs stay bounded in memory",
    )
    simulate.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="capture the run's event stream and write it to PATH "
        "(coflow lifecycle, epoch samples, port utilization, failures)",
    )
    simulate.add_argument(
        "--trace-format",
        choices=["jsonl", "chrome", "prom"],
        default="jsonl",
        help="trace output format: JSONL event log (ccf stats / gantt "
        "--from-trace), Chrome trace_event JSON (Perfetto), or a "
        "Prometheus-style metrics dump",
    )

    stats = sub.add_parser(
        "stats",
        help="summarize a captured JSONL trace: CCT percentiles, per-port "
        "bottleneck attribution, failure counts",
    )
    stats.add_argument("trace_file", type=str)
    stats.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    stats.add_argument(
        "--top-ports", type=int, default=5,
        help="how many bottleneck ports to list (default 5)",
    )

    report = sub.add_parser(
        "report", help="run a set of experiments and write a markdown report"
    )
    report.add_argument(
        "--out", type=str, default="ccf-report.md", help="output markdown path"
    )
    report.add_argument(
        "--experiments",
        nargs="*",
        default=None,
        help="subset to run (default: the quick ones; 'all' for everything)",
    )
    report.add_argument(
        "--quick", action="store_true",
        help="reduced scale for the paper-figure sweeps",
    )
    report.add_argument(
        "--from-trace", type=str, default=None, metavar="PATH",
        help="append a trace-summary section (stats + Gantt) rendered "
        "from a captured JSONL trace -- no re-simulation; with no "
        "--experiments the report contains only that section",
    )

    verify = sub.add_parser(
        "verify", help="check every published claim of the paper (PASS/FAIL)"
    )
    verify.add_argument(
        "--scale-factor", type=float, default=60.0,
        help="TPC-H scale factor for the sweeps (600 = paper scale)",
    )
    verify.add_argument("--nodes", type=int, default=100)

    trace_gen = sub.add_parser(
        "trace-gen",
        help="generate a synthetic Facebook-style coflow trace file",
    )
    trace_gen.add_argument("out", type=str, help="output path")
    trace_gen.add_argument(
        "--format", choices=["json", "coflowsim"], default="json"
    )
    trace_gen.add_argument("--ports", type=int, default=40)
    trace_gen.add_argument("--coflows", type=int, default=100)
    trace_gen.add_argument("--arrival-rate", type=float, default=2.0)
    trace_gen.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser(
        "bench",
        help="benchmark event-horizon batching (batch_events off vs on) "
        "on large service-mode fleets",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="one small fleet case (CI smoke); its key is in the full run",
    )
    bench.add_argument(
        "--out", type=str, default="BENCH_simulator.json",
        help="where to write the JSON payload ('-' for stdout only)",
    )
    bench.add_argument(
        "--check", metavar="BASELINE", type=str, default=None,
        help="compare per-case speedups against a committed "
        "BENCH_simulator.json and exit non-zero on regression",
    )
    bench.add_argument(
        "--tolerance", type=float, default=0.3,
        help="allowed fractional speedup drop vs the baseline "
        "(default 0.3)",
    )

    gantt_cmd = sub.add_parser(
        "gantt",
        help="render an ASCII Gantt chart from a coflow file (simulates) "
        "or from a captured JSONL trace (no re-simulation)",
    )
    gantt_cmd.add_argument("coflow_file", type=str, nargs="?", default=None)
    gantt_cmd.add_argument(
        "--from-trace", type=str, default=None, metavar="PATH",
        help="read a JSONL trace written by 'ccf simulate --trace' "
        "instead of re-running the simulation",
    )
    gantt_cmd.add_argument(
        "--scheduler",
        choices=list(SCHEDULER_NAMES),
        default="sebf",
    )
    gantt_cmd.add_argument("--rate", type=float, default=128e6)
    gantt_cmd.add_argument("--width", type=int, default=60)

    serve = sub.add_parser(
        "serve",
        help="open-loop service mode: stream seeded coflow arrivals "
        "through an admission policy into the simulator and report "
        "steady-state CCT percentiles (exit 4 on SLO breach)",
    )
    _add_arrival_args(serve)
    serve.add_argument(
        "--load", type=float, default=0.7,
        help="offered utilization target; the port rate is derived so the "
        "stream offers this fraction of fabric capacity (> 1 = overload; "
        "default 0.7)",
    )
    serve.add_argument(
        "--rate", type=float, default=None,
        help="explicit per-port rate in bytes/s (overrides --load)",
    )
    serve.add_argument(
        "--scheduler",
        choices=list(SCHEDULER_NAMES),
        default="sebf",
    )
    serve.add_argument(
        "--policy",
        choices=["accept-all", "bounded-queue", "load-shedding", "slo-guard"],
        default="accept-all",
        help="admission policy (default accept-all)",
    )
    serve.add_argument(
        "--watermark", type=float, default=None, metavar="SECONDS",
        help="backlog watermark for bounded-queue / load-shedding "
        "(seconds of work outstanding)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=None, metavar="N",
        help="deferred-coflow cap for bounded-queue",
    )
    serve.add_argument(
        "--slo", type=float, default=None, metavar="SECONDS",
        help="steady-state p95 CCT budget; exit 4 when breached "
        "(also the default budget of --policy slo-guard)",
    )
    serve.add_argument(
        "--chaos-mtbf", type=float, default=None,
        help="soak mode: inject random port failures with this mean time "
        "between failures (s) while arrivals stream in",
    )
    serve.add_argument(
        "--chaos-mttr", type=float, default=1.0,
        help="mean time to repair for soak-mode failures (s)",
    )
    serve.add_argument(
        "--min-alive", type=int, default=2,
        help="chaos never takes the fabric below this many live ports",
    )
    serve.add_argument(
        "--recovery",
        choices=["abort", "retry", "replan"],
        default="retry",
        help="flow-recovery policy for soak-mode failures (default retry)",
    )
    serve.add_argument(
        "--max-epochs", type=int, default=None, metavar="N",
        help="watchdog: abort after this many epochs (default 50,000,000)",
    )
    serve.add_argument(
        "--wall-clock-budget", type=float, default=None, metavar="SECONDS",
        help="watchdog: abort when the run exceeds this much real time",
    )
    serve.add_argument(
        "--crash-dir", type=str, default="crash-reports", metavar="DIR",
        help="where watchdog crash reports are written",
    )
    serve.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="stream the event log (lifecycle + admission rulings) to "
        "PATH as JSONL while running -- bounded memory at any length",
    )
    serve.add_argument(
        "--flush-every", type=int, default=4096, metavar="N",
        help="trace flush interval in events (default 4096)",
    )
    serve.add_argument(
        "--json", action="store_true",
        help="emit the service report as JSON instead of text",
    )

    capacity = sub.add_parser(
        "capacity",
        help="binary-search the p95-CCT knee: the highest sustainable "
        "offered load, or the smallest fabric for a target stream",
    )
    capacity.add_argument(
        "axis", choices=["load", "nodes"],
        help="search axis: 'load' finds the highest offered load within "
        "budget; 'nodes' the smallest fabric (needs --rate)",
    )
    capacity.add_argument(
        "--budget", type=float, required=True, metavar="SECONDS",
        help="p95 CCT budget the knee is measured against",
    )
    _add_arrival_args(capacity)
    capacity.add_argument(
        "--rate", type=float, default=None,
        help="fixed per-port rate in bytes/s (required for the nodes "
        "axis; forbidden for the load axis)",
    )
    capacity.add_argument(
        "--scheduler",
        choices=list(SCHEDULER_NAMES),
        default="sebf",
    )
    capacity.add_argument(
        "--policy",
        choices=["accept-all", "bounded-queue", "load-shedding", "slo-guard"],
        default="accept-all",
    )
    capacity.add_argument(
        "--lo", type=float, default=None,
        help="search lower bound (default: 0.2 load / 4 nodes)",
    )
    capacity.add_argument(
        "--hi", type=float, default=None,
        help="search upper bound (default: 2.0 load / 128 nodes)",
    )
    capacity.add_argument(
        "--iters", type=int, default=6,
        help="bisection iterations for the load axis (default 6)",
    )
    capacity.add_argument(
        "--probe-arrivals", type=int, default=None, metavar="N",
        help="shorten each probe stream to N arrivals",
    )
    capacity.add_argument(
        "--json", action="store_true",
        help="emit the probe list and knee as JSON",
    )
    return parser


def _add_arrival_args(p: argparse.ArgumentParser) -> None:
    """Arrival-stream flags shared by ``serve`` and ``capacity``."""
    p.add_argument(
        "--ports", type=int, default=24, help="fabric size (default 24)"
    )
    p.add_argument(
        "--users", type=int, default=20,
        help="concurrently active users (default 20)",
    )
    p.add_argument(
        "--qps", type=float, default=0.1,
        help="queries (coflows) per user per second (default 0.1); the "
        "aggregate arrival rate is users * qps",
    )
    p.add_argument(
        "--process", choices=["poisson", "pareto"], default="poisson",
        help="inter-arrival law (pareto = heavy-tailed bursts)",
    )
    p.add_argument(
        "--pareto-alpha", type=float, default=1.5,
        help="tail index of pareto gaps (> 1; smaller = burstier)",
    )
    p.add_argument(
        "--size-mix", choices=["facebook", "zipf"], default="facebook",
        help="coflow size distribution (default facebook four-bin mix)",
    )
    p.add_argument(
        "--zipf-a", type=float, default=2.0,
        help="zipf exponent for --size-mix zipf",
    )
    p.add_argument(
        "--size-scale", type=float, default=0.002,
        help="multiplier on every flow volume (default 0.002 scales the "
        "raw mix down to interactive CCTs)",
    )
    p.add_argument(
        "--arrivals", type=int, default=1000,
        help="stream length in coflows (default 1000)",
    )
    p.add_argument(
        "--horizon", type=float, default=None,
        help="stop generating arrivals after this many seconds",
    )
    p.add_argument("--seed", type=int, default=0, help="stream seed")


def _unwritable(path: str) -> bool:
    """Report (one stderr line) an output path that cannot be created.

    Checked before the work whose result goes to ``path``, so a mistyped
    ``--out`` / ``--trace`` exits 2 at once instead of a traceback after
    the whole run.
    """
    import os
    from pathlib import Path

    target = Path(path)
    if target.is_dir():
        reason = "is a directory"
    elif not target.parent.is_dir():
        reason = f"directory {target.parent} does not exist"
    elif not os.access(target.parent, os.W_OK):
        reason = f"directory {target.parent} is not writable"
    else:
        return False
    print(f"cannot write {path}: {reason}", file=sys.stderr)
    return True


def _nonpositive_rate(rate: float) -> bool:
    """Report (one stderr line) a ``--rate`` that is not positive."""
    if rate > 0:
        return False
    print(f"--rate must be positive, got {rate:g}", file=sys.stderr)
    return True


def _cmd_plan(args: argparse.Namespace) -> int:
    """Plan a synthetic workload; optionally export the coflow as JSON."""
    from repro.core.framework import CCF
    from repro.network.io import save_coflows
    from repro.workloads.analytic import AnalyticJoinWorkload

    if args.out and _unwritable(args.out):
        return EXIT_USAGE
    try:
        workload = AnalyticJoinWorkload(
            n_nodes=args.nodes,
            scale_factor=args.scale_factor,
            zipf_s=args.zipf,
            skew=args.skew,
        )
    except ValueError as exc:
        print(f"invalid workload: {exc}", file=sys.stderr)
        return EXIT_USAGE
    plan = CCF().plan(workload, args.strategy)
    print(plan.describe())
    if args.out:
        try:
            save_coflows([plan.to_coflow()], args.out)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"coflow written to {args.out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    """Replay a coflow JSON file through the chosen discipline."""
    from repro.network.fabric import Fabric
    from repro.network.io import load_coflows
    from repro.network.schedulers import make_scheduler
    from repro.network.simulator import CoflowSimulator

    if _nonpositive_rate(args.rate) or (
        args.trace and _unwritable(args.trace)
    ):
        return EXIT_USAGE
    try:
        coflows = load_coflows(args.coflow_file)
    except (OSError, ValueError) as exc:
        print(f"cannot read coflow file {args.coflow_file}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    if not coflows:
        print("no coflows in file")
        return 1
    n_ports = max(c.max_port for c in coflows) + 1
    fabric = Fabric(n_ports=n_ports, rate=args.rate)

    dynamics = None
    if args.fail_port and args.chaos_mtbf:
        print("--fail-port and --chaos-mtbf are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.fail_port:
        from repro.network.dynamics import FabricDynamics

        bad = [p for p in args.fail_port if not 0 <= p < n_ports]
        if bad:
            print(f"--fail-port out of range: {bad}", file=sys.stderr)
            return 2
        try:
            dynamics = FabricDynamics.fail(
                time=args.fail_at,
                ports=args.fail_port,
                fabric=fabric,
                recover_at=args.recover_at,
                direction=args.fail_direction,
            )
        except ValueError as exc:
            print(f"invalid failure schedule: {exc}", file=sys.stderr)
            return 2
    elif args.chaos_mtbf:
        from repro.network.chaos import ChaosConfig, chaos_schedule

        try:
            dynamics = chaos_schedule(
                ChaosConfig(
                    mtbf=args.chaos_mtbf,
                    mttr=args.chaos_mttr,
                    horizon=args.chaos_horizon or 10.0 * args.chaos_mtbf,
                    seed=args.chaos_seed,
                ),
                fabric,
            )
        except ValueError as exc:
            print(f"invalid chaos configuration: {exc}", file=sys.stderr)
            return 2
    noise = None
    if args.estimate_noise is not None or args.censor:
        from repro.core.noise import NoisyEstimates

        try:
            noise = NoisyEstimates(
                sigma=args.estimate_noise or 0.0,
                censor_fraction=args.censor,
                seed=args.noise_seed,
            )
        except ValueError as exc:
            print(f"invalid estimate noise: {exc}", file=sys.stderr)
            return 2

    tracer = None
    if args.trace:
        from repro.obs import Tracer, repro_header

        tracer = Tracer(
            header=repro_header(
                scheduler=args.scheduler,
                fabric=fabric,
                seed=args.chaos_seed if args.chaos_mtbf else None,
                coflow_file=args.coflow_file,
                recovery=args.recovery,
                stage_policy=args.stage_policy,
                estimate_noise=args.estimate_noise,
                noise_seed=args.noise_seed if noise is not None else None,
            )
        )

    if args.stage_policy is not None:
        if args.recovery is not None:
            print(
                "--stage-policy (job-level recovery) and --recovery "
                "(flow-level recovery) are mutually exclusive; pick one",
                file=sys.stderr,
            )
            return 2
        if dynamics is None or not dynamics.has_failures:
            print(
                "--stage-policy needs a failure schedule: add --fail-port "
                "or --chaos-mtbf so there is something to recover from",
                file=sys.stderr,
            )
            return 2
        return _simulate_with_stage_policy(
            args, coflows, fabric, dynamics, noise, tracer
        )

    if dynamics is not None and dynamics.has_failures and args.recovery is None:
        print(
            "failure injection needs --recovery {abort,retry,replan} "
            "(flow-level) or --stage-policy (job-level)",
            file=sys.stderr,
        )
        return 2

    if args.timeline_limit is not None:
        if not args.timeline:
            print(
                "--timeline-limit only applies with --timeline",
                file=sys.stderr,
            )
            return 2
        if args.timeline_limit <= 0:
            print(
                f"--timeline-limit must be positive, "
                f"got {args.timeline_limit}",
                file=sys.stderr,
            )
            return 2

    from repro.network.simulator import DEFAULT_STALL_EPOCHS

    sim = CoflowSimulator(
        fabric,
        make_scheduler(args.scheduler),
        dynamics=dynamics,
        recovery=args.recovery,
        estimate_noise=noise,
        record_timeline=args.timeline,
        timeline_limit=args.timeline_limit,
        instrumentation=tracer,
        max_epochs=args.max_epochs or 10_000_000,
        wall_clock_budget_s=args.wall_clock_budget,
        stall_epochs=(
            args.stall_epochs
            if args.stall_epochs is not None
            else DEFAULT_STALL_EPOCHS
        ),
    )
    try:
        res = sim.run(coflows)
    except ResilienceError as exc:
        return _report_watchdog_abort(exc, args)
    print(f"scheduler={args.scheduler} ports={n_ports} rate={args.rate:.3g} B/s")
    for cid in sorted(res.ccts):
        print(f"  coflow {cid}: CCT = {res.ccts[cid]:.3f} s")
    for cid in sorted(res.failed_coflows):
        print(f"  coflow {cid}: FAILED at t={res.failed_coflows[cid]:.3f} s")
    print(f"average CCT: {res.average_cct:.3f} s, makespan: {res.makespan:.3f} s")
    if args.timeline:
        if res.timeline_truncated:
            print(
                f"epoch timeline: last {len(res.epochs)} epochs "
                f"recorded ({res.epochs_dropped} older epochs dropped "
                f"by --timeline-limit {args.timeline_limit})"
            )
        else:
            print(f"epoch timeline: {len(res.epochs)} epochs recorded")
    else:
        print(
            f"epoch timeline not recorded ({res.n_epochs} epochs ran; "
            "pass --timeline to keep it)"
        )
    if dynamics is not None:
        s = res.failure_summary()
        print(
            f"failures: {s['port_failures']} port failures, "
            f"{s['reroutes']} reroutes, {s['restarts']} restarts, "
            f"{s['aborted_coflows']} coflows aborted, "
            f"{s['bytes_lost']:.3g} bytes lost"
        )
    _write_trace(tracer, args)
    return 0 if not res.failed_coflows else 1


def _report_watchdog_abort(exc: ResilienceError, args: argparse.Namespace) -> int:
    """Persist a watchdog crash report and return the abort exit code.

    Exit code 3 distinguishes a supervised abort (stall / budget breach,
    diagnosable from the report) from ordinary failures (1) and CLI
    misuse (2).
    """
    from repro.core.resilience import write_crash_report

    print(f"watchdog abort: {exc}", file=sys.stderr)
    if exc.report is not None:
        path = write_crash_report(exc.report, args.crash_dir)
        print(f"crash report written to {path}", file=sys.stderr)
    return EXIT_WATCHDOG


def _write_trace(tracer, args: argparse.Namespace) -> None:
    """Flush a captured trace to ``--trace`` in ``--trace-format``."""
    if tracer is None:
        return
    from repro.obs import write_trace

    write_trace(tracer, args.trace, args.trace_format)
    print(
        f"trace: {len(tracer.events)} events -> {args.trace} "
        f"({args.trace_format})"
    )


def _simulate_with_stage_policy(
    args, coflows, fabric, dynamics, noise, tracer=None
) -> int:
    """Replay a coflow file with job-level (stage) fault tolerance.

    Each coflow becomes an independent stage of a :class:`JobDAG` with a
    fixed identity assignment that reproduces its flows exactly; the
    failure-aware :class:`DAGExecutor` then retries / replans attempts
    that fabric failures abort, per ``--stage-policy``.
    """
    import numpy as np

    from repro.analytics.dag import DAGExecutor, JobDAG
    from repro.core.model import ShuffleModel

    n_ports = fabric.n_ports
    dag = JobDAG(name="replay")
    for i, cf in enumerate(coflows):
        volumes = np.zeros((n_ports, n_ports))
        for f in cf.flows:
            volumes[f.src, f.dst] += f.volume
        # h = the volume matrix with partitions=nodes and an identity
        # assignment: partition k's bytes are exactly the traffic into
        # node k, so the replayed shuffle equals the file's coflow (and a
        # replan can move any stranded partition to a surviving node).
        name = cf.name or f"cf{i}"
        if name in dag.stage_names:
            name = f"{name}#{i}"
        dag.add(
            name,
            ShuffleModel(h=volumes, rate=args.rate, name=name),
            dest=np.arange(n_ports),
            min_start=cf.arrival_time,
        )
    executor = DAGExecutor(scheduler=args.scheduler, estimate_noise=noise)
    res = executor.run(
        dag,
        strategy="replay",
        dynamics=dynamics,
        stage_policy=args.stage_policy,
        instrumentation=tracer,
    )
    print(
        f"scheduler={args.scheduler} ports={n_ports} rate={args.rate:.3g} B/s "
        f"stage-policy={args.stage_policy}"
    )
    for name in dag.stage_names:
        s = res.stages[name]
        if s.status == "completed":
            print(
                f"  stage {name}: completed at t={s.completion_time:.3f} s "
                f"({s.attempts} attempt{'s' if s.attempts != 1 else ''})"
            )
        else:
            print(f"  stage {name}: {s.status.upper()} ({s.attempts} attempts)")
    for e in res.events:
        print(
            f"  [t={e.time:.3f}] {e.stage} attempt {e.attempt}: "
            f"{e.action} {e.detail}"
        )
    summary = res.failure_summary()
    print(
        f"job {'completed' if res.completed else 'FAILED'}: "
        f"makespan {res.makespan:.3f} s, "
        f"{int(summary['stage_retries'])} retries "
        f"({int(summary['stage_replans'])} replanned), "
        f"{summary['bytes_lost']:.3g} bytes lost"
    )
    _write_trace(tracer, args)
    return 0 if res.completed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run one grid experiment through the parallel, cache-aware engine."""
    from repro.core.resilience import Backoff
    from repro.experiments.engine import (
        CellCache,
        default_cache_dir,
        derive_seed,
        run_sweep,
    )
    from repro.experiments.registry import build_sweep
    from repro.obs import MetricsRegistry

    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.retries < 0:
        print(f"--retries must be >= 0, got {args.retries}", file=sys.stderr)
        return 2
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        print(
            f"--cell-timeout must be > 0, got {args.cell_timeout}",
            file=sys.stderr,
        )
        return 2
    if args.no_cache and args.resume:
        print(
            "--no-cache and --resume are mutually exclusive: resuming "
            "means restoring completed cells from the cache",
            file=sys.stderr,
        )
        return 2

    cache = None
    cache_dir = None
    if not args.no_cache:
        from pathlib import Path

        cache_dir = (
            Path(args.cache_dir).expanduser()
            if args.cache_dir
            else default_cache_dir()
        )
        if args.resume and not cache_dir.is_dir():
            print(
                f"--resume: cache directory {cache_dir} does not exist; "
                "nothing to resume from",
                file=sys.stderr,
            )
            return 2
        cache = CellCache(cache_dir)

    try:
        spec = build_sweep(
            args.experiment,
            quick=args.quick,
            scale_factor=args.scale_factor,
            n_nodes=args.nodes,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    retry = None
    if args.retries > 0:
        retry = Backoff(
            max_attempts=args.retries + 1,
            base_delay=0.2,
            max_delay=5.0,
            jitter=0.1,
            seed=derive_seed(0, "sweep-backoff", spec.name),
        )
    metrics = MetricsRegistry()
    try:
        outcome = run_sweep(
            spec,
            jobs=args.jobs,
            cache=cache,
            progress=lambda msg: print(msg, file=sys.stderr),
            metrics=metrics,
            retry=retry,
            cell_timeout_s=args.cell_timeout,
        )
    except KeyboardInterrupt as exc:
        return _report_interrupt(exc, cache_dir)
    if args.resume:
        print(
            f"resumed {outcome.hits}/{outcome.n_cells} cells from cache",
            file=sys.stderr,
        )
    print(
        f"cells: {outcome.n_cells} total | cache hits: {outcome.hits} | "
        f"executed: {outcome.misses} | jobs: {outcome.jobs} | "
        f"{outcome.elapsed_seconds:.2f}s "
        f"cache={cache_dir if cache is not None else 'off'}",
        file=sys.stderr,
    )
    if (
        outcome.retries or outcome.timeouts or outcome.worker_crashes
        or outcome.pool_rebuilds or outcome.quarantined
    ):
        print(
            f"supervision: {outcome.retries} retries | "
            f"{outcome.timeouts} timeouts | "
            f"{outcome.worker_crashes} worker crashes | "
            f"{outcome.pool_rebuilds} pool rebuilds | "
            f"{outcome.quarantined} quarantined",
            file=sys.stderr,
        )
    table = outcome.table
    if args.csv:
        print(table.to_csv(), end="")
    elif args.markdown:
        print(table.to_markdown())
    else:
        print(table.render())
    return 0


def _report_interrupt(exc: KeyboardInterrupt, cache_dir) -> int:
    """Print a partial-progress summary after Ctrl-C and return 130.

    130 is the conventional ``128 + SIGINT`` exit code.  Completed cells
    were flushed to the cache before the interrupt surfaced, so a
    ``--resume`` rerun restores them.
    """
    from repro.experiments.engine import SweepInterrupted

    if isinstance(exc, SweepInterrupted):
        print(f"interrupted: {exc}", file=sys.stderr)
    else:
        print("interrupted", file=sys.stderr)
    if cache_dir is not None:
        print(
            f"completed cells were flushed to {cache_dir}; "
            "rerun with --resume to pick up where you left off",
            file=sys.stderr,
        )
    return EXIT_INTERRUPTED


def _cmd_tournament(args: argparse.Namespace) -> int:
    """Run the tournament grid and print the ranked scorecard."""
    from repro.experiments.engine import CellCache, default_cache_dir, run_sweep
    from repro.experiments.tournament import scorecard, tournament_sweep

    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2

    cache = None
    cache_dir = None
    if not args.no_cache:
        from pathlib import Path

        cache_dir = (
            Path(args.cache_dir).expanduser()
            if args.cache_dir
            else default_cache_dir()
        )
        cache = CellCache(cache_dir)

    spec = tournament_sweep(quick=args.quick)
    try:
        outcome = run_sweep(
            spec,
            jobs=args.jobs,
            cache=cache,
            progress=lambda msg: print(msg, file=sys.stderr),
        )
    except KeyboardInterrupt as exc:
        return _report_interrupt(exc, cache_dir)
    print(
        f"cells: {outcome.n_cells} total | cache hits: {outcome.hits} | "
        f"executed: {outcome.misses} | jobs: {outcome.jobs} | "
        f"{outcome.elapsed_seconds:.2f}s "
        f"cache={cache_dir if cache is not None else 'off'}",
        file=sys.stderr,
    )
    grid = outcome.table
    card = scorecard(grid)
    if args.json:
        import json

        def rows_of(table):
            return [dict(zip(table.columns, row)) for row in table.rows]

        print(
            json.dumps(
                {"scorecard": rows_of(card), "grid": rows_of(grid)},
                indent=2,
            )
        )
    elif args.csv:
        print(card.to_csv(), end="")
    elif args.markdown:
        print(card.to_markdown())
        if args.full:
            print()
            print(grid.to_markdown())
    else:
        print(card.render())
        if args.full:
            print()
            print(grid.render())
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run the chaos campaign with platform faults armed by default."""
    import shutil
    import tempfile
    from pathlib import Path

    from repro.core.resilience import WorkerCrash
    from repro.experiments.chaoscampaign import SCENARIOS, run_campaign
    from repro.experiments.engine import CellCache, default_cache_dir
    from repro.obs import MetricsRegistry, Tracer, repro_header

    if args.list_scenarios:
        width = max(len(name) for name in SCENARIOS)
        for name, scenario in SCENARIOS.items():
            print(f"{name:<{width}}  {scenario.description}")
        return 0
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.scenario:
        unknown = sorted(set(args.scenario) - set(SCENARIOS))
        if unknown:
            print(
                f"unknown scenario(s) {unknown}; "
                f"choose from {sorted(SCENARIOS)}",
                file=sys.stderr,
            )
            return 2
    if args.trace and _unwritable(args.trace):
        return EXIT_USAGE

    cache = None
    cache_dir = None
    if not args.no_cache:
        cache_dir = (
            Path(args.cache_dir).expanduser()
            if args.cache_dir
            else default_cache_dir()
        )
        cache = CellCache(cache_dir)

    tracer = None
    if args.trace:
        tracer = Tracer(
            header=repro_header(seed=args.seed, command="chaos")
        )
    fault_dir = None
    if not args.no_faults:
        fault_dir = tempfile.mkdtemp(prefix="ccf-chaos-faults-")
    try:
        out = run_campaign(
            quick=args.quick,
            jobs=args.jobs,
            cache=cache,
            fault_dir=fault_dir,
            seed=args.seed,
            scenarios=tuple(args.scenario) if args.scenario else None,
            progress=lambda msg: print(msg, file=sys.stderr),
            metrics=MetricsRegistry(),
            instrumentation=tracer,
        )
    except KeyboardInterrupt as exc:
        return _report_interrupt(exc, cache_dir)
    except WorkerCrash as exc:
        return _report_watchdog_abort(exc, args)
    finally:
        if fault_dir is not None:
            shutil.rmtree(fault_dir, ignore_errors=True)
        if tracer is not None and args.trace:
            from repro.obs import write_trace

            write_trace(tracer, args.trace, "jsonl")
            print(
                f"trace: {len(tracer.events)} events -> {args.trace} (jsonl)",
                file=sys.stderr,
            )

    rendered = (
        out.table.to_markdown() + "\n\n" + out.resilience.to_markdown()
        if args.markdown
        else out.table.render() + "\n\n" + out.resilience.render()
    )
    if args.csv:
        print(out.table.to_csv(), end="")
    else:
        print(rendered)
    if args.report:
        report_path = Path(args.report).expanduser()
        if report_path.parent != Path(""):
            report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(
            "# Chaos campaign\n\n"
            + out.table.to_markdown()
            + "\n\n"
            + out.resilience.to_markdown()
            + "\n",
            encoding="utf-8",
        )
        print(f"report written to {report_path}", file=sys.stderr)
    if not out.completed:
        print("chaos campaign FAILED: coflows were lost", file=sys.stderr)
        return 1
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Summarize a JSONL trace: CCTs, bottleneck ports, failures."""
    import json

    from repro.obs import read_jsonl, render_summary, summarize_trace

    try:
        header, events = read_jsonl(args.trace_file)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace {args.trace_file}: {exc}", file=sys.stderr)
        return 2
    summary = summarize_trace(events, header, top_k_ports=args.top_ports)
    if summary["epochs"].get("truncated"):
        print(
            f"warning: {args.trace_file}: epoch timeline is truncated "
            "(oldest samples missing); epoch-derived statistics cover "
            "only the retained window",
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps(summary, indent=1))
    else:
        print(render_summary(summary))
    return 0


#: Experiments cheap enough for the default report.
_QUICK_REPORT = (
    "motivating",
    "solver",
    "ablation-heuristic",
    "trace",
    "online",
    "topology",
)


def _cmd_report(args: argparse.Namespace) -> int:
    """Run a batch of experiments and write one markdown report."""
    from pathlib import Path

    names = args.experiments
    if not names:
        if args.from_trace and args.experiments is None:
            names = []  # trace-only report
        else:
            names = list(_QUICK_REPORT)
            if args.quick:
                names += ["fig5", "fig6", "fig7"]
    elif names == ["all"]:
        names = sorted(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        return 2
    if _unwritable(args.out):
        return EXIT_USAGE

    sections = [
        "# CCF experiment report",
        "",
        "Reproduction of Cheng et al., *A Coflow-based Co-optimization "
        "Framework for High-performance Data Analytics* (ICPP 2017).",
        "",
    ]
    for name in names:
        print(f"running {name} ...", flush=True)
        if name in _CONFIGURABLE and args.quick:
            table = _CONFIGURABLE[name](SweepConfig.quick())
        else:
            table = run_experiment(name)
        sections += [f"## {name}", "", table.to_markdown(), ""]
    if args.from_trace:
        section = _trace_report_section(args.from_trace)
        if section is None:
            return 2
        sections += section
    Path(args.out).write_text("\n".join(sections))
    print(f"report written to {args.out}")
    return 0


def _trace_report_section(path: str) -> list[str] | None:
    """Markdown section summarizing a captured JSONL trace."""
    import json

    from repro.network.visualize import gantt
    from repro.obs import (
        names_from_trace,
        read_jsonl,
        render_summary,
        result_from_trace,
        summarize_trace,
    )

    try:
        header, events = read_jsonl(path)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace {path}: {exc}", file=sys.stderr)
        return None
    summary = summarize_trace(events, header)
    res = result_from_trace(events)
    lines = [f"## Trace summary: `{path}`", ""]
    if summary["epochs"].get("truncated"):
        lines += [
            "> **Note:** the epoch timeline in this trace is truncated "
            "(oldest samples missing); epoch-derived statistics and the "
            "Gantt chart cover only the retained window.",
            "",
        ]
    if header:
        lines += [
            "Reproducibility header:",
            "",
            "```json",
            json.dumps(header, indent=1),
            "```",
            "",
        ]
    lines += ["```", render_summary(summary), "```", ""]
    if res.ccts or res.failed_coflows:
        lines += [
            "```",
            gantt(res, names=names_from_trace(events)),
            "```",
            "",
        ]
    return lines


def _cmd_trace_gen(args: argparse.Namespace) -> int:
    """Generate a synthetic trace in JSON or CoflowSim format."""
    from repro.workloads.coflowmix import CoflowMixConfig, generate_coflow_mix

    if _unwritable(args.out):
        return EXIT_USAGE
    try:
        cfg = CoflowMixConfig(
            n_ports=args.ports,
            n_coflows=args.coflows,
            arrival_rate=args.arrival_rate,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"invalid trace configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    coflows = generate_coflow_mix(cfg)
    if args.format == "json":
        from repro.network.io import save_coflows

        save_coflows(coflows, args.out)
    else:
        from repro.network.coflowsim_trace import write_coflowsim_trace

        try:
            write_coflowsim_trace(coflows, args.out, n_ports=args.ports)
        except ValueError as exc:
            print(f"cannot express trace in CoflowSim format: {exc}",
                  file=sys.stderr)
            return 1
    print(
        f"wrote {len(coflows)} coflows over {args.ports} ports to {args.out} "
        f"({args.format})"
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Benchmark event-horizon batching and emit BENCH_simulator.json."""
    import json

    from repro.experiments.hotpath import (
        check_regression,
        load_baseline,
        run_bench,
    )

    if args.out != "-" and _unwritable(args.out):
        return EXIT_USAGE
    payload = run_bench(
        quick=args.quick,
        progress=lambda msg: print(f"  {msg}", file=sys.stderr),
    )
    text = json.dumps(payload, indent=1)
    # With ``--out -`` stdout IS the JSON document; human-facing chatter
    # must go to stderr or the stream stops parsing.
    chat = sys.stderr if args.out == "-" else sys.stdout
    if args.out == "-":
        print(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}", file=chat)
    s = payload["summary"]
    ident = "yes" if s["all_bit_identical"] else "NO -- INVESTIGATE"
    print(
        f"{s['n_cases']} fleet cases; batch_events off/on speedup "
        f"{s['min_speedup']:.2f}x..{s['max_speedup']:.2f}x "
        f"(geomean {s['geomean_speedup']:.2f}x); bit-identical: {ident}",
        file=chat,
    )
    if not s["all_bit_identical"]:
        return 1
    if args.check:
        problems = check_regression(
            payload, load_baseline(args.check), tolerance=args.tolerance
        )
        if problems:
            for p in problems:
                print(f"REGRESSION: {p}", file=sys.stderr)
            return 1
        print(
            f"no regression vs {args.check} (tolerance {args.tolerance})",
            file=chat,
        )
    return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    """Print the Gantt chart: simulate a coflow file, or read a trace."""
    from repro.network.visualize import gantt

    if args.width < 10:
        print(f"--width must be at least 10, got {args.width}",
              file=sys.stderr)
        return EXIT_USAGE
    if (args.coflow_file is None) == (args.from_trace is None):
        print(
            "gantt needs exactly one input: a coflow JSON file "
            "(simulates) or --from-trace PATH (replays a capture)",
            file=sys.stderr,
        )
        return 2
    if args.from_trace:
        from repro.obs import names_from_trace, read_jsonl, result_from_trace

        try:
            header, events = read_jsonl(args.from_trace)
        except (OSError, ValueError) as exc:
            print(f"cannot read trace {args.from_trace}: {exc}",
                  file=sys.stderr)
            return 2
        res = result_from_trace(events)
        names = names_from_trace(events)
        bits = [
            f"{k}={header[k]}"
            for k in ("scheduler", "version", "git")
            if header.get(k) is not None
        ]
        print(f"trace {args.from_trace}: {len(names)} coflows"
              + (f" ({'  '.join(bits)})" if bits else ""))
        print(gantt(res, names=names, width=args.width))
        return 0

    from repro.network.fabric import Fabric
    from repro.network.io import load_coflows
    from repro.network.schedulers import make_scheduler
    from repro.network.simulator import CoflowSimulator

    if _nonpositive_rate(args.rate):
        return EXIT_USAGE
    try:
        coflows = load_coflows(args.coflow_file)
    except (OSError, ValueError) as exc:
        print(f"cannot read coflow file {args.coflow_file}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    if not coflows:
        print("no coflows in file", file=sys.stderr)
        return 1
    n_ports = max(c.max_port for c in coflows) + 1
    sim = CoflowSimulator(
        Fabric(n_ports=n_ports, rate=args.rate), make_scheduler(args.scheduler)
    )
    res = sim.run(coflows)
    names = {
        (c.coflow_id if c.coflow_id >= 0 else i): (c.name or f"cf{i}")
        for i, c in enumerate(coflows)
    }
    print(f"scheduler={args.scheduler}, {len(coflows)} coflows, "
          f"{n_ports} ports")
    print(gantt(res, names=names, width=args.width))
    return 0


def _arrival_config_from_args(args: argparse.Namespace):
    """Build the ArrivalConfig shared by serve and capacity."""
    from repro.service import ArrivalConfig

    return ArrivalConfig(
        n_ports=args.ports,
        users=args.users,
        qps_per_user=args.qps,
        process=args.process,
        pareto_alpha=args.pareto_alpha,
        size_mix=args.size_mix,
        zipf_a=args.zipf_a,
        size_scale=args.size_scale,
        max_arrivals=args.arrivals,
        horizon=args.horizon,
        seed=args.seed,
    )


def _serve_policy_params(args: argparse.Namespace) -> dict:
    """Collect the explicit policy overrides from serve flags."""
    params: dict = {}
    if args.watermark is not None:
        params["watermark_s"] = args.watermark
    if args.queue_limit is not None:
        params["queue_limit"] = args.queue_limit
    return params


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run one open-loop service scenario and report it."""
    import json

    from repro.service import ServiceConfig, make_admission_policy, run_service

    try:
        arrival = _arrival_config_from_args(args)
        policy_params = _serve_policy_params(args)
        # Validate the policy/override combination up front so a bad
        # flag pairing (e.g. --queue-limit with accept-all) is a usage
        # error, not a mid-run crash.
        make_admission_policy(args.policy, **policy_params)
        config = ServiceConfig(
            arrival=arrival,
            load=args.load,
            rate=args.rate,
            scheduler=args.scheduler,
            policy=args.policy,
            policy_params=policy_params,
            slo_p95=args.slo,
            chaos_mtbf=args.chaos_mtbf,
            chaos_mttr=args.chaos_mttr,
            min_alive=args.min_alive,
            recovery=args.recovery,
            wall_clock_budget_s=args.wall_clock_budget,
            max_epochs=args.max_epochs or 50_000_000,
        )
    except (ValueError, TypeError) as exc:
        print(f"invalid service configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE

    tracer = None
    if args.trace:
        from repro.obs import StreamingTracer, repro_header

        if _unwritable(args.trace):
            return EXIT_USAGE
        try:
            tracer = StreamingTracer(
                args.trace,
                flush_every=args.flush_every,
                header=repro_header(
                    seed=args.seed,
                    scheduler=args.scheduler,
                    mode="serve",
                    policy=args.policy,
                    load=args.load,
                ),
            )
        except ValueError as exc:
            print(f"invalid trace configuration: {exc}", file=sys.stderr)
            return EXIT_USAGE

    try:
        report, result, _ = run_service(config, instrumentation=tracer)
    except ResilienceError as exc:
        return _report_watchdog_abort(exc, args)
    finally:
        if tracer is not None:
            tracer.close()

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        _print_service_report(report, args)
    if tracer is not None and not args.json:
        print(f"trace: {tracer.events_written} events -> {args.trace}")
    return EXIT_SLO_BREACH if not report.slo_ok else EXIT_OK


def _print_service_report(report, args: argparse.Namespace) -> None:
    """Human-readable ``ccf serve`` output."""
    print(
        f"service: policy={report.policy} load={report.load:.2f} "
        f"scheduler={args.scheduler} seed={args.seed}"
    )
    print(
        f"arrivals={report.arrivals} admitted={report.admitted} "
        f"shed={report.shed} ({report.shed_fraction:.1%}) "
        f"deferrals={report.deferrals} completed={report.completed} "
        f"aborted={report.aborted}"
    )

    def _line(label: str, d: dict) -> str:
        return (
            f"{label}: p50={d['p50']:.3f} p95={d['p95']:.3f} "
            f"p99={d['p99']:.3f} mean={d['mean']:.3f} max={d['max']:.3f}"
        )

    print(_line("CCT overall (s)", report.overall))
    if report.steady is not None:
        print(
            _line("CCT steady  (s)", report.steady)
            + f"  [warm-up {report.steady['warmup_s']:.3f} s, "
            f"{report.steady['samples']} samples]"
        )
    else:
        print("CCT steady  (s): too few completions for a steady window")
    print(
        f"backlog at drain: {report.backlog_end_s:.3f} s, "
        f"makespan {report.makespan:.3f} s, {report.n_epochs} epochs"
    )
    if report.port_failures:
        print(
            f"soak: {report.port_failures} port failures, "
            f"{report.bytes_lost:.3g} bytes lost"
        )
    if report.slo_p95 is not None:
        verdict = "OK" if report.slo_ok else "BREACH"
        print(
            f"SLO: p95 {report.reported_p95:.3f} s vs budget "
            f"{report.slo_p95:.3f} s -> {verdict}"
        )


def _cmd_capacity(args: argparse.Namespace) -> int:
    """Binary-search the p95-CCT knee along one axis."""
    import json

    from repro.service import (
        ServiceConfig,
        find_load_capacity,
        find_node_capacity,
    )

    if args.axis == "load" and args.rate is not None:
        print(
            "--rate is forbidden on the load axis (the port rate is "
            "derived from each probed load)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.axis == "nodes" and args.rate is None:
        print(
            "the nodes axis needs an explicit --rate (a load-derived "
            "rate would re-absorb any node count)",
            file=sys.stderr,
        )
        return EXIT_USAGE

    try:
        config = ServiceConfig(
            arrival=_arrival_config_from_args(args),
            rate=args.rate,
            scheduler=args.scheduler,
            policy=args.policy,
        )
        if args.axis == "load":
            kwargs = dict(
                budget_s=args.budget,
                iters=args.iters,
                probe_arrivals=args.probe_arrivals,
            )
            if args.lo is not None:
                kwargs["lo"] = args.lo
            if args.hi is not None:
                kwargs["hi"] = args.hi
            result = find_load_capacity(config, **kwargs)
        else:
            kwargs = dict(
                budget_s=args.budget,
                probe_arrivals=args.probe_arrivals,
            )
            if args.lo is not None:
                kwargs["lo"] = int(args.lo)
            if args.hi is not None:
                kwargs["hi"] = int(args.hi)
            result = find_node_capacity(config, **kwargs)
    except ValueError as exc:
        print(f"invalid capacity search: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.json:
        payload = {
            "axis": result.axis,
            "budget_s": result.budget_s,
            "best": result.best,
            "status": result.status,
            "probes": [vars(p) for p in result.probes],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"capacity search: axis={result.axis} "
            f"budget={result.budget_s:.3f} s ({len(result.probes)} probes)"
        )
        print(result.table())
        print(result.describe())
    return EXIT_OK if result.best is not None else EXIT_FAILURE


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    if args.command == "plan":
        return _cmd_plan(args)

    if args.command == "simulate":
        return _cmd_simulate(args)

    if args.command == "sweep":
        return _cmd_sweep(args)

    if args.command == "tournament":
        return _cmd_tournament(args)

    if args.command == "chaos":
        return _cmd_chaos(args)

    if args.command == "stats":
        return _cmd_stats(args)

    if args.command == "report":
        return _cmd_report(args)

    if args.command == "trace-gen":
        return _cmd_trace_gen(args)

    if args.command == "bench":
        return _cmd_bench(args)

    if args.command == "gantt":
        return _cmd_gantt(args)

    if args.command == "serve":
        return _cmd_serve(args)

    if args.command == "capacity":
        return _cmd_capacity(args)

    if args.command == "verify":
        from repro.experiments.paper_check import run_paper_check

        table = run_paper_check(
            scale_factor=args.scale_factor, n_nodes=args.nodes
        )
        print(table.render())
        return 0 if "FAIL" not in table.column("verdict") else 1

    name = args.experiment
    if name in _CONFIGURABLE and (args.quick or args.scale_factor or args.nodes):
        cfg = SweepConfig.quick() if args.quick else SweepConfig()
        if args.scale_factor is not None:
            cfg.scale_factor = args.scale_factor
        if args.nodes is not None:
            cfg.n_nodes = args.nodes
        table = _CONFIGURABLE[name](cfg)
    else:
        table = run_experiment(name)

    if args.csv:
        print(table.to_csv(), end="")
    elif args.markdown:
        print(table.to_markdown())
    else:
        print(table.render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
