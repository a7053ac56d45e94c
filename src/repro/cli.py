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

Every subcommand is one :data:`COMMANDS` entry: its help line, a
function adding its options (mostly from the shared option groups) and
its handler.  Handlers import what they run, so building the parser
loads no experiment module.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.checks import at_least, in_range, non_negative, positive
from repro.experiments.registry import (
    EXPERIMENTS,
    FIGURE_SWEEPS,
    QUICK_N_NODES,
    QUICK_SCALE_FACTOR,
    SWEEPS,
    build_sweep,
    run_experiment,
)
from repro.network.scheduler_names import SCHEDULER_NAMES

__all__ = [
    "main",
    "build_parser",
    "COMMANDS",
    "EXIT_OK",
    "EXIT_FAILURE",
    "EXIT_USAGE",
    "EXIT_WATCHDOG",
    "EXIT_SLO_BREACH",
    "EXIT_INTERRUPTED",
    "EXIT_BROKEN_PIPE",
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
EXIT_BROKEN_PIPE = 141

EXIT_CODES: dict[int, str] = {
    EXIT_OK: "success",
    EXIT_FAILURE: "run failure (failed coflows, FAIL verdict, regression)",
    EXIT_USAGE: "usage error (bad flags, bad configuration)",
    EXIT_WATCHDOG: "watchdog abort (crash report written)",
    EXIT_SLO_BREACH: "SLO breach (serve: p95 CCT over budget)",
    EXIT_INTERRUPTED: "interrupted (128 + SIGINT)",
    EXIT_BROKEN_PIPE: "output pipe closed by the reader (128 + SIGPIPE)",
}


def _checked(name: str, kind: type, check: Callable, *bounds, **opts):
    """An argparse type: the text as ``kind``, admitted only by ``check``
    (a :mod:`repro.core.checks` helper), so a bad number is refused at
    parse time with exit 2 and a message naming the option."""

    def parse(text: str):
        value = kind(text)  # not a number: argparse's "invalid ... value"
        try:
            return check("", value, *bounds, **opts)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parse.__name__ = name
    return parse


_positive_float = _checked("positive_float", float, positive)
_positive_int = _checked("positive_int", int, positive)
_non_negative_float = _checked("non_negative_float", float, non_negative)
_non_negative_int = _checked("non_negative_int", int, non_negative)
#: Tail indices and exponents whose mean must be finite.
_above_one_float = _checked("above_one_float", float, in_range, 1, math.inf, "()")
_fraction = _checked("fraction", float, in_range, 0, 1)
_unit_float = _checked("unit_float", float, in_range, 0, 1, "[)")
#: Failure and repair times: ``inf`` is a time that never comes.
_time = _checked("time", float, non_negative, inf_ok=True)
#: Watchdog budgets: ``inf`` is a budget that never fires.
_budget = _checked("budget", float, positive, inf_ok=True)
_gantt_width = _checked("gantt_width", int, at_least, 10)


def _add_formats(p, *formats: str, what: str = "the table") -> None:
    """Output-format flags, any of ``json``, ``markdown`` and ``csv``."""
    helps = {
        "json": "emit {} as JSON",
        "markdown": "render {} as markdown",
        "csv": "render {} as CSV",
    }
    for fmt in formats:
        p.add_argument(
            f"--{fmt}", action="store_true", help=helps[fmt].format(what)
        )


def _add_engine_cache(
    p, jobs: int = 1, why: str = "1 = serial fallback path"
) -> None:
    """Sweep-engine flags: worker processes and the on-disk cell cache."""
    p.add_argument(
        "--jobs", type=_positive_int, default=jobs, metavar="N",
        help=f"worker processes (default {why})",
    )
    p.add_argument(
        "--cache-dir", metavar="DIR",
        help="cell-cache root (default: $CCF_CACHE_DIR or "
        "~/.cache/ccf/sweeps)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="skip cache lookup and write-back entirely",
    )


def _add_figure_overrides(p) -> None:
    """Scale overrides of the figure sweeps (fig5/fig6/fig7)."""
    p.add_argument(
        "--quick", action="store_true",
        help="the reduced smoke-test grid (figure sweeps: "
        f"SF={QUICK_SCALE_FACTOR}, {QUICK_N_NODES} nodes)",
    )
    p.add_argument(
        "--scale-factor", type=_positive_float,
        help="TPC-H scale factor (figure sweeps only)",
    )
    p.add_argument(
        "--nodes", type=_positive_int,
        help="number of nodes (fig6/fig7 sweeps)",
    )


def _add_scheduler(p) -> None:
    p.add_argument(
        "--scheduler", choices=SCHEDULER_NAMES, default="sebf",
        help="coflow scheduling discipline (default sebf)",
    )


def _add_watchdog(p, max_epochs: int | None = None) -> None:
    """Watchdog limits (when ``max_epochs``, their default, is given) and
    where a crash report goes."""
    if max_epochs is not None:
        p.add_argument(
            "--max-epochs", type=_positive_int, default=max_epochs,
            metavar="N",
            help="watchdog: abort (with a crash report) after this many "
            f"epochs (default {max_epochs:,})",
        )
        p.add_argument(
            "--wall-clock-budget", type=_budget, metavar="SECONDS",
            help="watchdog: abort (with a crash report) when the run "
            "exceeds this much real time (default or inf: unlimited)",
        )
    p.add_argument(
        "--crash-dir", default="crash-reports", metavar="DIR",
        help="where crash reports are written (default crash-reports/)",
    )


def _watchdog_limits(args: argparse.Namespace) -> dict:
    """The watchdog flags as simulator keyword arguments."""
    limits = {"max_epochs": args.max_epochs,
              "wall_clock_budget_s": args.wall_clock_budget}
    if getattr(args, "stall_epochs", None) is not None:  # simulate only
        limits["stall_epochs"] = args.stall_epochs
    return limits


def _add_chaos(p, mttr: float, recovery: str | None) -> None:
    """Seeded random port failures and the flow recovery they call for."""
    p.add_argument(
        "--chaos-mtbf", type=_positive_float,
        help="inject random port failures with this mean time between "
        "failures (s)",
    )
    p.add_argument(
        "--chaos-mttr", type=_positive_float, default=mttr,
        help=f"mean time to repair a chaos failure (s, default {mttr:g})",
    )
    p.add_argument(
        "--recovery", choices=["abort", "retry", "replan"], default=recovery,
        help="flow-recovery policy for failed ports "
        + (f"(default {recovery})" if recovery
           else "(required with failure injection)"),
    )


def _add_trace(p, what: str) -> None:
    p.add_argument("--trace", metavar="PATH", help=f"write {what} to PATH")


def _add_arrival_args(p) -> None:
    """Arrival-stream flags shared by ``serve`` and ``capacity``."""
    p.add_argument(
        "--ports", type=int, default=24, help="fabric size (default 24)"
    )
    p.add_argument(
        "--users", type=int, default=20,
        help="concurrently active users (default 20)",
    )
    p.add_argument(
        "--qps", type=_positive_float, default=0.1,
        help="queries (coflows) per user per second (default 0.1); the "
        "aggregate arrival rate is users * qps",
    )
    p.add_argument(
        "--process", choices=["poisson", "pareto"], default="poisson",
        help="inter-arrival law (pareto = heavy-tailed bursts)",
    )
    p.add_argument(
        "--pareto-alpha", type=_above_one_float, default=1.5,
        help="tail index of pareto gaps (> 1; smaller = burstier)",
    )
    p.add_argument(
        "--size-mix", choices=["facebook", "zipf"], default="facebook",
        help="coflow size distribution (default facebook four-bin mix)",
    )
    p.add_argument(
        "--zipf-a", type=_above_one_float, default=2.0,
        help="zipf exponent for --size-mix zipf",
    )
    p.add_argument(
        "--size-scale", type=_positive_float, default=0.002,
        help="multiplier on every flow volume (default 0.002 scales the "
        "raw mix down to interactive CCTs)",
    )
    p.add_argument(
        "--arrivals", type=int, default=1000,
        help="stream length in coflows (default 1000)",
    )
    p.add_argument(
        "--horizon", type=_positive_float,
        help="stop generating arrivals after this many seconds",
    )
    p.add_argument("--seed", type=int, default=0, help="stream seed")


class _UsageError(Exception):
    """Bad flags or unreadable input: :func:`main` prints the message
    as one stderr line and exits :data:`EXIT_USAGE`."""


def _stderr(message: str) -> None:
    print(message, file=sys.stderr)


def _check_writable(path) -> None:
    """Refuse an output path (if given) that cannot be created.

    Checked before the work whose result goes to ``path``, so a mistyped
    ``--out`` / ``--trace`` / ``--report`` exits 2 at once instead of a
    traceback (or a stray directory) after the whole run.
    """
    from pathlib import Path

    if path is None:
        return
    target = Path(path)
    if target.is_dir():
        reason = "is a directory"
    elif not target.parent.is_dir():
        reason = f"directory {target.parent} does not exist"
    elif not os.access(target.parent, os.W_OK):
        reason = f"directory {target.parent} is not writable"
    else:
        return
    raise _UsageError(f"cannot write {path}: {reason}")


def _read_trace(path: str):
    """``(header, events)`` of a JSONL trace, or a usage error."""
    from repro.obs import read_jsonl

    try:
        return read_jsonl(path)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot read trace {path}: {exc}") from None


def _load_coflow_file(args: argparse.Namespace):
    """The coflows of ``args.coflow_file`` and a fabric at ``--rate``
    spanning their ports; ``None`` (after one stderr line) for a file
    holding no coflow."""
    from repro.network.fabric import Fabric
    from repro.network.io import load_coflows

    try:
        coflows = load_coflows(args.coflow_file)
    except (OSError, ValueError) as exc:
        raise _UsageError(
            f"cannot read coflow file {args.coflow_file}: {exc}"
        ) from None
    if not coflows:
        _stderr("no coflows in file")
        return None
    # A file of flowless coflows still needs a one-port fabric.
    n_ports = max(1, max(c.max_port for c in coflows) + 1)
    return coflows, Fabric(n_ports=n_ports, rate=args.rate)


def _open_cache(args: argparse.Namespace):
    """The cell cache ``--cache-dir`` / ``--no-cache`` select, and its
    root (``(None, None)`` under ``--no-cache``)."""
    if args.no_cache:
        return None, None
    from pathlib import Path

    from repro.experiments.engine import CellCache, default_cache_dir

    root = (
        Path(args.cache_dir).expanduser()
        if args.cache_dir
        else default_cache_dir()
    )
    return CellCache(root), root


def _print_cells(outcome, cache_dir) -> None:
    """The sweep engine's one-line run summary, on stderr."""
    _stderr(
        f"cells: {outcome.n_cells} total | cache hits: {outcome.hits} | "
        f"executed: {outcome.misses} | jobs: {outcome.jobs} | "
        f"{outcome.elapsed_seconds:.2f}s "
        f"cache={cache_dir if cache_dir is not None else 'off'}"
    )


def _print_tables(args: argparse.Namespace, *tables) -> None:
    """Print result tables as ``--csv`` (the first only), ``--markdown``
    or rendered text, a blank line apart."""
    if args.csv:
        print(tables[0].to_csv(), end="")
    else:
        print("\n\n".join(
            t.to_markdown() if args.markdown else t.render() for t in tables
        ))


def _write_trace(tracer, path: str, fmt: str = "jsonl", out=None) -> None:
    """Flush a captured trace (if any) to ``path`` and say so on ``out``
    (default stdout)."""
    if tracer is None:
        return
    from repro.obs import write_trace

    write_trace(tracer, path, fmt)
    print(f"trace: {len(tracer.events)} events -> {path} ({fmt})", file=out)


def _report_watchdog_abort(exc, args: argparse.Namespace) -> int:
    """Persist a watchdog crash report and return the abort exit code.

    Exit code 3 distinguishes a supervised abort (stall / budget breach,
    diagnosable from the report) from ordinary failures (1) and CLI
    misuse (2).
    """
    from repro.core.resilience import write_crash_report

    _stderr(f"watchdog abort: {exc}")
    if exc.report is not None:
        path = write_crash_report(exc.report, args.crash_dir)
        _stderr(f"crash report written to {path}")
    return EXIT_WATCHDOG


def _report_interrupt(exc: KeyboardInterrupt, cache_dir) -> int:
    """Print a partial-progress summary after Ctrl-C and return 130.

    130 is the conventional ``128 + SIGINT`` exit code.  Completed cells
    were flushed to the cache before the interrupt surfaced, so a
    ``--resume`` rerun restores them.
    """
    from repro.experiments.engine import SweepInterrupted

    if isinstance(exc, SweepInterrupted):
        _stderr(f"interrupted: {exc}")
    else:
        _stderr("interrupted")
    if cache_dir is not None:
        _stderr(
            f"completed cells were flushed to {cache_dir}; "
            "rerun with --resume to pick up where you left off"
        )
    return EXIT_INTERRUPTED


def _cmd_list(args: argparse.Namespace) -> int:
    print("\n".join(sorted(EXPERIMENTS)))
    return EXIT_OK


def _run_options(p) -> None:
    p.add_argument("experiment", choices=sorted(EXPERIMENTS))
    _add_figure_overrides(p)
    _add_formats(p, "markdown", "csv")


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        table = run_experiment(
            args.experiment,
            quick=args.quick,
            scale_factor=args.scale_factor,
            n_nodes=args.nodes,
        )
    except ValueError as exc:
        raise _UsageError(str(exc))
    _print_tables(args, table)
    return EXIT_OK


def _sweep_options(p) -> None:
    p.add_argument("experiment", choices=sorted(SWEEPS))
    _add_engine_cache(p)
    p.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep: require the cache directory "
        "to exist and report how many cells were restored from it",
    )
    _add_figure_overrides(p)
    _add_formats(p, "markdown", "csv")
    p.add_argument(
        "--retries", type=_non_negative_int, default=0, metavar="N",
        help="retry failed cells up to N extra times with exponential "
        "backoff and deterministic jitter (default 0 = fail fast)",
    )
    p.add_argument(
        "--cell-timeout", type=_positive_float, metavar="SECONDS",
        help="hard wall-clock bound per cell attempt (default: unlimited)",
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run one grid experiment through the parallel, cache-aware engine."""
    from repro.core.resilience import Backoff
    from repro.experiments.engine import derive_seed, run_sweep
    from repro.obs import MetricsRegistry

    if args.no_cache and args.resume:
        raise _UsageError(
            "--no-cache and --resume are mutually exclusive: resuming "
            "means restoring completed cells from the cache"
        )
    cache, cache_dir = _open_cache(args)
    if args.resume and not cache_dir.is_dir():
        raise _UsageError(
            f"--resume: cache directory {cache_dir} does not exist; "
            "nothing to resume from"
        )
    try:
        spec = build_sweep(
            args.experiment,
            quick=args.quick,
            scale_factor=args.scale_factor,
            n_nodes=args.nodes,
        )
    except ValueError as exc:
        raise _UsageError(str(exc))

    retry = None
    if args.retries > 0:
        retry = Backoff(
            max_attempts=args.retries + 1,
            base_delay=0.2,
            max_delay=5.0,
            jitter=0.1,
            seed=derive_seed(0, "sweep-backoff", spec.name),
        )
    try:
        outcome = run_sweep(
            spec,
            jobs=args.jobs,
            cache=cache,
            progress=_stderr,
            metrics=MetricsRegistry(),
            retry=retry,
            cell_timeout_s=args.cell_timeout,
        )
    except KeyboardInterrupt as exc:
        return _report_interrupt(exc, cache_dir)
    if args.resume:
        _stderr(f"resumed {outcome.hits}/{outcome.n_cells} cells from cache")
    _print_cells(outcome, cache_dir)
    if (
        outcome.retries or outcome.timeouts or outcome.worker_crashes
        or outcome.pool_rebuilds or outcome.quarantined
    ):
        _stderr(
            f"supervision: {outcome.retries} retries | "
            f"{outcome.timeouts} timeouts | "
            f"{outcome.worker_crashes} worker crashes | "
            f"{outcome.pool_rebuilds} pool rebuilds | "
            f"{outcome.quarantined} quarantined"
        )
    _print_tables(args, outcome.table)
    return EXIT_OK


def _tournament_options(p) -> None:
    p.add_argument(
        "--quick", action="store_true",
        help="reduced smoke grid (10 ports, 10 coflows, facebook mix, "
        "two weight distributions; still every scheduler)",
    )
    _add_engine_cache(p)
    p.add_argument(
        "--full", action="store_true",
        help="also print the raw per-instance grid under the scorecard",
    )
    _add_formats(p, "json", "markdown", "csv", what="the scorecard")


def _cmd_tournament(args: argparse.Namespace) -> int:
    """Run the tournament grid and print the ranked scorecard."""
    from repro.experiments.engine import run_sweep
    from repro.experiments.tournament import scorecard, tournament_sweep

    cache, cache_dir = _open_cache(args)
    try:
        outcome = run_sweep(
            tournament_sweep(quick=args.quick),
            jobs=args.jobs,
            cache=cache,
            progress=_stderr,
        )
    except KeyboardInterrupt as exc:
        return _report_interrupt(exc, cache_dir)
    _print_cells(outcome, cache_dir)
    grid = outcome.table
    card = scorecard(grid)
    if args.json:
        import json

        def rows_of(table):
            return [dict(zip(table.columns, row)) for row in table.rows]

        print(json.dumps(
            {"scorecard": rows_of(card), "grid": rows_of(grid)}, indent=2
        ))
    else:
        _print_tables(args, card, *([grid] if args.full else []))
    return EXIT_OK


def _chaos_options(p) -> None:
    p.add_argument(
        "--quick", action="store_true",
        help="shrink the workload (the scenario set stays complete)",
    )
    _add_engine_cache(p, jobs=2, why="2; worker-kill scenarios need >= 2")
    p.add_argument(
        "--scenario", action="append", metavar="NAME",
        help="run only this scenario (repeatable; default: all)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="base seed for chaos schedules, noise and retry jitter",
    )
    p.add_argument(
        "--no-faults", action="store_true",
        help="leave platform faults dormant (simulated faults only)",
    )
    p.add_argument(
        "--report", metavar="PATH",
        help="also write a markdown report (tables + scorecard) to PATH",
    )
    _add_formats(p, "csv", "markdown", what="the scenario tables")
    _add_trace(
        p, "the campaign's platform-event trace (retries, timeouts, "
        "crashes, quarantines) as JSONL",
    )
    _add_watchdog(p)
    p.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list the fault scenarios and exit",
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run the chaos campaign with platform faults armed by default."""
    import shutil
    import tempfile
    from pathlib import Path

    from repro.core.resilience import WorkerCrash
    from repro.experiments.chaoscampaign import SCENARIOS, run_campaign
    from repro.obs import MetricsRegistry, Tracer, repro_header

    if args.list_scenarios:
        width = max(len(name) for name in SCENARIOS)
        for name, scenario in SCENARIOS.items():
            print(f"{name:<{width}}  {scenario.description}")
        return EXIT_OK
    unknown = sorted(set(args.scenario or ()) - set(SCENARIOS))
    if unknown:
        raise _UsageError(
            f"unknown scenario(s) {unknown}; choose from {sorted(SCENARIOS)}"
        )
    report = Path(args.report).expanduser() if args.report else None
    _check_writable(args.trace)
    _check_writable(report)

    cache, cache_dir = _open_cache(args)
    tracer = None
    if args.trace:
        tracer = Tracer(header=repro_header(seed=args.seed, command="chaos"))
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
            progress=_stderr,
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
        _write_trace(tracer, args.trace, out=sys.stderr)

    tables = (out.table, out.resilience)
    _print_tables(args, *tables)
    if report is not None:
        markdown = "\n\n".join(t.to_markdown() for t in tables)
        report.write_text(
            f"# Chaos campaign\n\n{markdown}\n", encoding="utf-8"
        )
        _stderr(f"report written to {report}")
    if not out.completed:
        _stderr("chaos campaign FAILED: coflows were lost")
        return EXIT_FAILURE
    return EXIT_OK


def _plan_options(p) -> None:
    p.add_argument("--nodes", type=int, default=50)
    p.add_argument("--scale-factor", type=_positive_float, default=3.0)
    p.add_argument("--zipf", type=_non_negative_float, default=0.8)
    p.add_argument("--skew", type=_unit_float, default=0.2)
    p.add_argument(
        "--strategy", choices=["hash", "mini", "ccf", "ccf-exact"],
        default="ccf",
    )
    p.add_argument("--out", help="coflow JSON path")


def _cmd_plan(args: argparse.Namespace) -> int:
    """Plan a synthetic workload; optionally export the coflow as JSON."""
    from repro.core.framework import CCF
    from repro.network.io import save_coflows
    from repro.workloads.analytic import AnalyticJoinWorkload

    _check_writable(args.out)
    try:
        workload = AnalyticJoinWorkload(
            n_nodes=args.nodes,
            scale_factor=args.scale_factor,
            zipf_s=args.zipf,
            skew=args.skew,
        )
    except ValueError as exc:
        raise _UsageError(f"invalid workload: {exc}")
    plan = CCF().plan(workload, args.strategy)
    print(plan.describe())
    if args.out:
        try:
            save_coflows([plan.to_coflow()], args.out)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out}: {exc}")
        print(f"coflow written to {args.out}")
    return EXIT_OK


def _simulate_options(p) -> None:
    p.add_argument("coflow_file")
    _add_scheduler(p)
    p.add_argument(
        "--rate", type=_positive_float, default=128e6,
        help="port rate in bytes/s",
    )
    _add_chaos(p, mttr=2.0, recovery=None)
    p.add_argument(
        "--fail-port", type=int, action="append", metavar="PORT",
        help="kill this port mid-run (repeatable)",
    )
    p.add_argument(
        "--fail-at", type=_time, default=1.0,
        help="failure time in seconds (with --fail-port; inf: never)",
    )
    p.add_argument(
        "--recover-at", type=_time,
        help="repair time in seconds (with --fail-port; default or inf: "
        "never)",
    )
    p.add_argument(
        "--fail-direction", choices=["both", "ingress", "egress"],
        default="both", help="which side of the failed port dies",
    )
    p.add_argument(
        "--chaos-horizon", type=_positive_float,
        help="inject chaos failures only before this time (default: 10x MTBF)",
    )
    p.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for the chaos failure schedule",
    )
    p.add_argument(
        "--stage-policy",
        choices=["fail-job", "retry-stage", "replan-stage",
                 "fail", "retry", "replan"],
        help="job-level fault tolerance: treat each coflow as a stage and "
        "retry/replan failed attempts (needs a failure schedule; "
        "mutually exclusive with the flow-level --recovery)",
    )
    p.add_argument(
        "--estimate-noise", type=_non_negative_float, metavar="SIGMA",
        help="degrade the scheduler's view of remaining flow sizes with "
        "seeded lognormal noise of this sigma (true bytes still drain)",
    )
    p.add_argument(
        "--censor", type=_fraction, default=0.0, metavar="FRAC",
        help="fraction of flows whose size the scheduler cannot see "
        "(with --estimate-noise; default 0)",
    )
    p.add_argument(
        "--noise-seed", type=int, default=0,
        help="seed for the estimate-noise draws",
    )
    _add_watchdog(p, max_epochs=10_000_000)
    p.add_argument(
        "--stall-epochs", type=_non_negative_int, metavar="N",
        help="abort (with a crash report) after N consecutive epochs "
        "without simulation-clock progress (default 10,000; 0 disables)",
    )
    p.add_argument(
        "--timeline", action="store_true",
        help="record the per-epoch timeline (SimulationResult.epochs is "
        "otherwise empty; memory grows with epochs)",
    )
    p.add_argument(
        "--timeline-limit", type=_positive_int, metavar="N",
        help="with --timeline, keep only the most recent N epochs "
        "(ring buffer) so long runs stay bounded in memory",
    )
    _add_trace(
        p, "the run's event stream (coflow lifecycle, epoch samples, "
        "port utilization, failures)",
    )
    p.add_argument(
        "--trace-format", choices=["jsonl", "chrome", "prom"],
        default="jsonl",
        help="trace output format: JSONL event log (ccf stats / gantt "
        "--from-trace), Chrome trace_event JSON (Perfetto), or a "
        "Prometheus-style metrics dump",
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    """Replay a coflow JSON file through the chosen discipline."""
    from repro.core.resilience import ResilienceError
    from repro.network.schedulers import make_scheduler
    from repro.network.simulator import CoflowSimulator

    limits = _watchdog_limits(args)
    _check_writable(args.trace)
    loaded = _load_coflow_file(args)
    if loaded is None:
        return EXIT_FAILURE
    coflows, fabric = loaded
    n_ports = fabric.n_ports

    dynamics = None
    if args.fail_port and args.chaos_mtbf:
        raise _UsageError(
            "--fail-port and --chaos-mtbf are mutually exclusive"
        )
    if args.fail_port:
        from repro.network.dynamics import FabricDynamics

        bad = [p for p in args.fail_port if not 0 <= p < n_ports]
        if bad:
            raise _UsageError(f"--fail-port out of range: {bad}")
        try:
            dynamics = FabricDynamics.fail(
                time=args.fail_at,
                ports=args.fail_port,
                fabric=fabric,
                recover_at=args.recover_at,
                direction=args.fail_direction,
            )
        except ValueError as exc:
            raise _UsageError(f"invalid failure schedule: {exc}")
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
            raise _UsageError(f"invalid chaos configuration: {exc}")
    noise = None
    if args.estimate_noise is not None or args.censor:
        from repro.core.noise import NoisyEstimates

        noise = NoisyEstimates(  # both flags were checked while parsing
            sigma=args.estimate_noise or 0.0,
            censor_fraction=args.censor,
            seed=args.noise_seed,
        )

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
            raise _UsageError(
                "--stage-policy (job-level recovery) and --recovery "
                "(flow-level recovery) are mutually exclusive; pick one"
            )
        if dynamics is None or not dynamics.has_failures:
            raise _UsageError(
                "--stage-policy needs a failure schedule: add --fail-port "
                "or --chaos-mtbf so there is something to recover from"
            )
        return _simulate_with_stage_policy(
            args, coflows, fabric, dynamics, noise, tracer, limits
        )

    if dynamics is not None and dynamics.has_failures and args.recovery is None:
        raise _UsageError(
            "failure injection needs --recovery {abort,retry,replan} "
            "(flow-level) or --stage-policy (job-level)"
        )
    if args.timeline_limit is not None and not args.timeline:
        raise _UsageError("--timeline-limit only applies with --timeline")

    sim = CoflowSimulator(
        fabric,
        make_scheduler(args.scheduler),
        dynamics=dynamics,
        recovery=args.recovery,
        estimate_noise=noise,
        record_timeline=args.timeline,
        timeline_limit=args.timeline_limit,
        instrumentation=tracer,
        **limits,
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
    _write_trace(tracer, args.trace, args.trace_format)
    return EXIT_FAILURE if res.failed_coflows else EXIT_OK


def _simulate_with_stage_policy(
    args, coflows, fabric, dynamics, noise, tracer, limits
) -> int:
    """Replay a coflow file with job-level (stage) fault tolerance.

    Each coflow becomes an independent stage of a :class:`JobDAG` with a
    fixed identity assignment that reproduces its flows exactly; the
    failure-aware :class:`DAGExecutor` then retries / replans attempts
    that fabric failures abort, per ``--stage-policy``.  The watchdog
    ``limits`` supervise its simulator as they do the plain replay.
    """
    import numpy as np

    from repro.analytics.dag import DAGExecutor, JobDAG
    from repro.core.model import ShuffleModel
    from repro.core.resilience import ResilienceError

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
    executor = DAGExecutor(
        scheduler=args.scheduler, estimate_noise=noise, sim_limits=limits
    )
    try:
        res = executor.run(
            dag,
            strategy="replay",
            dynamics=dynamics,
            stage_policy=args.stage_policy,
            instrumentation=tracer,
        )
    except ResilienceError as exc:
        return _report_watchdog_abort(exc, args)
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
    _write_trace(tracer, args.trace, args.trace_format)
    return EXIT_OK if res.completed else EXIT_FAILURE


def _stats_options(p) -> None:
    p.add_argument("trace_file")
    _add_formats(p, "json", what="the summary")
    p.add_argument(
        "--top-ports", type=int, default=5,
        help="how many bottleneck ports to list (default 5)",
    )


def _cmd_stats(args: argparse.Namespace) -> int:
    """Summarize a JSONL trace: CCTs, bottleneck ports, failures."""
    import json

    from repro.obs import render_summary, summarize_trace

    header, events = _read_trace(args.trace_file)
    summary = summarize_trace(events, header, top_k_ports=args.top_ports)
    if summary["epochs"].get("truncated"):
        _stderr(
            f"warning: {args.trace_file}: epoch timeline is truncated "
            "(oldest samples missing); epoch-derived statistics cover "
            "only the retained window"
        )
    if args.json:
        print(json.dumps(summary, indent=1))
    else:
        print(render_summary(summary))
    return EXIT_OK


#: Experiments cheap enough for the default report.
_QUICK_REPORT = (
    "motivating",
    "solver",
    "ablation-heuristic",
    "trace",
    "online",
    "topology",
)


def _report_options(p) -> None:
    p.add_argument(
        "--out", default="ccf-report.md", help="output markdown path"
    )
    p.add_argument(
        "--experiments", nargs="*",
        help="subset to run (default: the quick ones; 'all' for everything)",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="reduced scale for the paper-figure sweeps",
    )
    p.add_argument(
        "--from-trace", metavar="PATH",
        help="append a trace-summary section (stats + Gantt) rendered "
        "from a captured JSONL trace -- no re-simulation; with no "
        "--experiments the report contains only that section",
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
        raise _UsageError(f"unknown experiments: {unknown}")
    _check_writable(args.out)

    sections = [
        "# CCF experiment report",
        "",
        "Reproduction of Cheng et al., *A Coflow-based Co-optimization "
        "Framework for High-performance Data Analytics* (ICPP 2017).",
        "",
    ]
    for name in names:
        print(f"running {name} ...", flush=True)
        table = run_experiment(
            name, quick=args.quick and name in FIGURE_SWEEPS
        )
        sections += [f"## {name}", "", table.to_markdown(), ""]
    if args.from_trace:
        sections += _trace_report_section(args.from_trace)
    Path(args.out).write_text("\n".join(sections))
    print(f"report written to {args.out}")
    return EXIT_OK


def _trace_report_section(path: str) -> list[str]:
    """Markdown section summarizing a captured JSONL trace."""
    import json

    from repro.network.visualize import gantt
    from repro.obs import (
        names_from_trace,
        render_summary,
        result_from_trace,
        summarize_trace,
    )

    header, events = _read_trace(path)
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


def _verify_options(p) -> None:
    p.add_argument(
        "--scale-factor", type=_positive_float, default=60.0,
        help="TPC-H scale factor for the sweeps (600 = paper scale)",
    )
    p.add_argument("--nodes", type=_positive_int, default=100)


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.experiments.paper_check import run_paper_check

    table = run_paper_check(scale_factor=args.scale_factor, n_nodes=args.nodes)
    print(table.render())
    return EXIT_FAILURE if "FAIL" in table.column("verdict") else EXIT_OK


def _trace_gen_options(p) -> None:
    p.add_argument("out", help="output path")
    p.add_argument("--format", choices=["json", "coflowsim"], default="json")
    p.add_argument("--ports", type=int, default=40)
    p.add_argument("--coflows", type=int, default=100)
    p.add_argument("--arrival-rate", type=_positive_float, default=2.0)
    p.add_argument("--seed", type=int, default=0)


def _cmd_trace_gen(args: argparse.Namespace) -> int:
    """Generate a synthetic trace in JSON or CoflowSim format."""
    from repro.workloads.coflowmix import CoflowMixConfig, generate_coflow_mix

    _check_writable(args.out)
    try:
        cfg = CoflowMixConfig(
            n_ports=args.ports,
            n_coflows=args.coflows,
            arrival_rate=args.arrival_rate,
            seed=args.seed,
        )
    except ValueError as exc:
        raise _UsageError(f"invalid trace configuration: {exc}")
    coflows = generate_coflow_mix(cfg)
    if args.format == "json":
        from repro.network.io import save_coflows

        save_coflows(coflows, args.out)
    else:
        from repro.network.coflowsim_trace import write_coflowsim_trace

        try:
            write_coflowsim_trace(coflows, args.out, n_ports=args.ports)
        except ValueError as exc:
            _stderr(f"cannot express trace in CoflowSim format: {exc}")
            return EXIT_FAILURE
    print(
        f"wrote {len(coflows)} coflows over {args.ports} ports to {args.out} "
        f"({args.format})"
    )
    return EXIT_OK


def _bench_options(p) -> None:
    p.add_argument(
        "--quick", action="store_true",
        help="one small fleet case, one small trace replay and the "
        "n=250 plan (CI smoke); their keys are in the full run",
    )
    p.add_argument(
        "--out", default="BENCH_simulator.json",
        help="where to write the JSON payload ('-' for stdout only)",
    )
    p.add_argument(
        "--check", metavar="BASELINE",
        help="compare per-case speedups (and, on the same platform, "
        "trace and plan fingerprints) against a committed "
        "BENCH_simulator.json and exit non-zero on regression",
    )
    p.add_argument(
        "--tolerance", type=_unit_float, default=0.3,
        help="allowed fractional speedup drop vs the baseline, in "
        "[0, 1) (default 0.3)",
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    """Benchmark event-horizon batching and emit BENCH_simulator.json."""
    import json

    from repro.experiments.hotpath import (
        check_regression,
        load_baseline,
        run_bench,
    )

    if args.out != "-":
        _check_writable(args.out)
    # Read the baseline first: ``--out`` may name the same file.
    baseline = None
    if args.check:
        try:
            baseline = load_baseline(args.check)
        except (OSError, ValueError) as exc:
            raise _UsageError(f"cannot read --check baseline: {exc}")
    payload = run_bench(
        quick=args.quick,
        progress=lambda msg: _stderr(f"  {msg}"),
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
    for key, case in payload.get("trace", {}).items():
        print(
            f"{key}: {case['wall_s']:.2f} s, {case['n_epochs']} epochs, "
            f"fingerprint {case['fingerprint'][:12]}",
            file=chat,
        )
    for key, case in payload.get("plan", {}).items():
        print(
            f"{key}: {case['wall_s']:.2f} s + eval {case['eval_s']:.3f} s, "
            f"peak {case['peak_mb']:.1f} MB, "
            f"fingerprint {case['fingerprint'][:12]}",
            file=chat,
        )
    if not s["all_bit_identical"]:
        return EXIT_FAILURE
    if baseline is not None:
        problems = check_regression(
            payload, baseline, tolerance=args.tolerance,
            say=lambda msg: print(msg, file=chat),
        )
        if problems:
            for p in problems:
                _stderr(f"REGRESSION: {p}")
            return EXIT_FAILURE
        print(
            f"no regression vs {args.check} (tolerance {args.tolerance})",
            file=chat,
        )
    return EXIT_OK


def _gantt_options(p) -> None:
    p.add_argument("coflow_file", nargs="?")
    p.add_argument(
        "--from-trace", metavar="PATH",
        help="read a JSONL trace written by 'ccf simulate --trace' "
        "instead of re-running the simulation",
    )
    _add_scheduler(p)
    p.add_argument("--rate", type=_positive_float, default=128e6)
    p.add_argument("--width", type=_gantt_width, default=60)


def _cmd_gantt(args: argparse.Namespace) -> int:
    """Print the Gantt chart: simulate a coflow file, or read a trace."""
    from repro.network.visualize import gantt

    if (args.coflow_file is None) == (args.from_trace is None):
        raise _UsageError(
            "gantt needs exactly one input: a coflow JSON file "
            "(simulates) or --from-trace PATH (replays a capture)"
        )
    if args.from_trace:
        from repro.obs import names_from_trace, result_from_trace

        header, events = _read_trace(args.from_trace)
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
        return EXIT_OK

    from repro.network.schedulers import make_scheduler
    from repro.network.simulator import CoflowSimulator

    loaded = _load_coflow_file(args)
    if loaded is None:
        return EXIT_FAILURE
    coflows, fabric = loaded
    res = CoflowSimulator(fabric, make_scheduler(args.scheduler)).run(coflows)
    names = {
        (c.coflow_id if c.coflow_id >= 0 else i): (c.name or f"cf{i}")
        for i, c in enumerate(coflows)
    }
    print(f"scheduler={args.scheduler}, {len(coflows)} coflows, "
          f"{fabric.n_ports} ports")
    print(gantt(res, names=names, width=args.width))
    return EXIT_OK


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


def _add_policy(p) -> None:
    p.add_argument(
        "--policy",
        choices=["accept-all", "bounded-queue", "load-shedding", "slo-guard"],
        default="accept-all",
        help="admission policy (default accept-all)",
    )


def _serve_options(p) -> None:
    _add_arrival_args(p)
    p.add_argument(
        "--load", type=_positive_float, default=0.7,
        help="offered utilization target; the port rate is derived so the "
        "stream offers this fraction of fabric capacity (> 1 = overload; "
        "default 0.7)",
    )
    p.add_argument(
        "--rate", type=_positive_float,
        help="explicit per-port rate in bytes/s (overrides --load)",
    )
    _add_scheduler(p)
    _add_policy(p)
    p.add_argument(
        "--watermark", type=_positive_float, metavar="SECONDS",
        help="backlog watermark for bounded-queue / load-shedding "
        "(seconds of work outstanding)",
    )
    p.add_argument(
        "--queue-limit", type=int, metavar="N",
        help="deferred-coflow cap for bounded-queue",
    )
    p.add_argument(
        "--slo", type=_positive_float, metavar="SECONDS",
        help="steady-state p95 CCT budget; exit 4 when breached "
        "(also the default budget of --policy slo-guard)",
    )
    _add_chaos(p, mttr=1.0, recovery="retry")
    p.add_argument(
        "--min-alive", type=_positive_int, default=2,
        help="chaos never takes the fabric below this many live ports",
    )
    _add_watchdog(p, max_epochs=50_000_000)
    _add_trace(
        p, "the event log (lifecycle + admission rulings) as JSONL, "
        "streamed while running -- bounded memory at any length",
    )
    p.add_argument(
        "--flush-every", type=int, default=4096, metavar="N",
        help="trace flush interval in events (default 4096)",
    )
    _add_formats(p, "json", what="the service report")


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run one open-loop service scenario and report it."""
    import json

    from repro.core.resilience import ResilienceError
    from repro.service import ServiceConfig, make_admission_policy, run_service

    try:
        arrival = _arrival_config_from_args(args)
        policy_params = {}
        if args.watermark is not None:
            policy_params["watermark_s"] = args.watermark
        if args.queue_limit is not None:
            policy_params["queue_limit"] = args.queue_limit
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
            **_watchdog_limits(args),
        )
    except (ValueError, TypeError) as exc:
        raise _UsageError(f"invalid service configuration: {exc}")

    tracer = None
    if args.trace:
        from repro.obs import StreamingTracer, repro_header

        _check_writable(args.trace)
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
            raise _UsageError(f"invalid trace configuration: {exc}")

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
        if tracer is not None:
            print(f"trace: {tracer.events_written} events -> {args.trace}")
    return EXIT_OK if report.slo_ok else EXIT_SLO_BREACH


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


def _capacity_options(p) -> None:
    p.add_argument(
        "axis", choices=["load", "nodes"],
        help="search axis: 'load' finds the highest offered load within "
        "budget; 'nodes' the smallest fabric (needs --rate)",
    )
    p.add_argument(
        "--budget", type=_positive_float, required=True, metavar="SECONDS",
        help="p95 CCT budget the knee is measured against",
    )
    _add_arrival_args(p)
    p.add_argument(
        "--rate", type=_positive_float,
        help="fixed per-port rate in bytes/s (required for the nodes "
        "axis; forbidden for the load axis)",
    )
    _add_scheduler(p)
    _add_policy(p)
    p.add_argument(
        "--lo", type=_positive_float,
        help="search lower bound (default: 0.2 load / 4 nodes)",
    )
    p.add_argument(
        "--hi", type=_positive_float,
        help="search upper bound (default: 2.0 load / 128 nodes)",
    )
    p.add_argument(
        "--iters", type=int, default=6,
        help="bisection iterations for the load axis (default 6)",
    )
    p.add_argument(
        "--probe-arrivals", type=int, metavar="N",
        help="shorten each probe stream to N arrivals",
    )
    _add_formats(p, "json", what="the probe list and knee")


def _cmd_capacity(args: argparse.Namespace) -> int:
    """Binary-search the p95-CCT knee along one axis."""
    import json

    from repro.service import (
        ServiceConfig,
        find_load_capacity,
        find_node_capacity,
    )

    bound = float if args.axis == "load" else int
    kwargs = dict(budget_s=args.budget, probe_arrivals=args.probe_arrivals)
    if args.axis == "load":
        kwargs["iters"] = args.iters
    if args.lo is not None:
        kwargs["lo"] = bound(args.lo)
    if args.hi is not None:
        kwargs["hi"] = bound(args.hi)
    search = find_load_capacity if args.axis == "load" else find_node_capacity
    try:
        config = ServiceConfig(
            arrival=_arrival_config_from_args(args),
            rate=args.rate,
            scheduler=args.scheduler,
            policy=args.policy,
        )
        result = search(config, **kwargs)
    except ValueError as exc:
        raise _UsageError(f"invalid capacity search: {exc}")

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


@dataclass(frozen=True)
class Command:
    """One ``ccf`` subcommand: its help line, a function adding its
    options to its parser, and its handler (returns the exit code)."""

    help: str
    options: Callable[[argparse.ArgumentParser], None] | None
    run: Callable[[argparse.Namespace], int]


COMMANDS: dict[str, Command] = {
    "list": Command("list available experiments", None, _cmd_list),
    "run": Command(
        "run one experiment and print its table", _run_options, _cmd_run
    ),
    "sweep": Command(
        "run a grid experiment through the parallel, cache-aware "
        "engine (bit-identical to 'ccf run', but cells fan out over "
        "worker processes and completed cells are memoized on disk)",
        _sweep_options, _cmd_sweep,
    ),
    "tournament": Command(
        "rank every scheduling discipline on the weighted-CCT "
        "objective: run the tournament grid (schedulers x workload "
        "families x weight distributions) through the sweep engine and "
        "fold it into a scorecard with per-scheduler optimality gaps "
        "against the interval-indexed LP lower bound",
        _tournament_options, _cmd_tournament,
    ),
    "chaos": Command(
        "run the chaos campaign: named fault scenarios (fabric "
        "chaos, noisy estimates, worker kills, cache corruption, cell "
        "timeouts) executed through the supervised sweep engine and "
        "scored for resilience",
        _chaos_options, _cmd_chaos,
    ),
    "plan": Command(
        "plan a synthetic join workload and export its coflow",
        _plan_options, _cmd_plan,
    ),
    "simulate": Command(
        "run a coflow JSON file through the simulator",
        _simulate_options, _cmd_simulate,
    ),
    "stats": Command(
        "summarize a captured JSONL trace: CCT percentiles, per-port "
        "bottleneck attribution, failure counts",
        _stats_options, _cmd_stats,
    ),
    "report": Command(
        "run a set of experiments and write a markdown report",
        _report_options, _cmd_report,
    ),
    "verify": Command(
        "check every published claim of the paper (PASS/FAIL)",
        _verify_options, _cmd_verify,
    ),
    "trace-gen": Command(
        "generate a synthetic Facebook-style coflow trace file",
        _trace_gen_options, _cmd_trace_gen,
    ),
    "bench": Command(
        "benchmark event-horizon batching (batch_events off vs on) "
        "on large service-mode fleets, time 200-coflow trace replays "
        "and paper-scale plans",
        _bench_options, _cmd_bench,
    ),
    "gantt": Command(
        "render an ASCII Gantt chart from a coflow file (simulates) "
        "or from a captured JSONL trace (no re-simulation)",
        _gantt_options, _cmd_gantt,
    ),
    "serve": Command(
        "open-loop service mode: stream seeded coflow arrivals "
        "through an admission policy into the simulator and report "
        "steady-state CCT percentiles (exit 4 on SLO breach)",
        _serve_options, _cmd_serve,
    ),
    "capacity": Command(
        "binary-search the p95-CCT knee: the highest sustainable "
        "offered load, or the smallest fabric for a target stream",
        _capacity_options, _cmd_capacity,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="ccf",
        description="Reproduce the CCF paper's evaluation (ICPP 2017).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.options is not None:
            command.options(p)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        status = COMMANDS[args.command].run(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
    except _UsageError as exc:
        _stderr(str(exc))
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader left early (``ccf list | head -1``): point stdout
        # at devnull so the interpreter's final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
