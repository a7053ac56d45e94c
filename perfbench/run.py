"""Pipeline benchmark: paper-scale planning, plan -> simulate, trace replay
and an overloaded service, each timed end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload join-plan --seed 1 --seconds 20 --trace 0

Every workload is a closed loop: one caller in this single-threaded
process starts each op when the previous one returns.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``--trace 0`` reports the end-to-end metrics
and ``--trace 1`` the per-layer ones.  The lines before it print every
metric with its unit, plus the median op time, the throughput, the
failed fraction and the workload's deterministic results (CCT, traffic,
optimality gap, shed fraction), which are checked rather than bounded.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import os  # noqa: E402

# One thread per pool, set before numpy loads its BLAS.  HiGHS (scipy's
# linprog) runs its serial simplex; the run checks the thread count.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Fresh child processes that measure setup again, half of them before
#: the timed ops and half after, so that the median of their setup times
#: and this process's spans more than one busy or quiet machine phase.
SETUP_CHILDREN = 6

#: Reference-kernel timings between two ops (see :func:`normalised_op_s`).
KERNEL_REPEATS = 3

#: The reference kernel's quiet time on the machine that ``op_s`` and
#: ``setup_s`` are reported for.
REFERENCE_KERNEL_S = 1e-3

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "peak_rss_mb": "MB",
}


def _load_program() -> None:
    """Put the checkout's ``src/`` first on the path; exit 2 without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


class Ledger:
    """Counts attempted and failed ops and pins each input's results."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first_quality: dict[int, dict[str, float]] = {}
        self.counts: Counter = Counter()

    def run(self, inputs: list, index: int, tracer=None) -> float | None:
        """Run, time and check one op on ``inputs[index]``.

        Returns the op's wall time, or None when it raised or failed a
        check.  Only the op itself is timed, not its checks.
        """
        self.attempted += 1
        inp = inputs[index]
        try:
            if tracer is None:
                t0 = time.perf_counter()
                raw = self.workload.op(inp)
                dt = time.perf_counter() - t0
            else:
                with tracer.installed():
                    t0 = time.perf_counter()
                    raw = self.workload.op(inp)
                    dt = time.perf_counter() - t0
            outcome = self.workload.check(inp, raw)
        except Exception:  # a failed op is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        del raw
        problems = list(outcome.problems)
        first = self.first_quality.setdefault(index, outcome.quality)
        if outcome.quality != first:
            problems.append(
                f"results differ from the first op on input {index}: "
                f"{outcome.quality} != {first}")
        if problems:
            print(f"perfbench: {self.workload.name}: " + "; ".join(problems),
                  file=sys.stderr)
            self.failed += 1
            return None
        if tracer is not None:
            self.counts.update(outcome.counts)
        return dt


def _child_setups(args, n: int) -> tuple[list[float], int]:
    """Setup times of ``n`` fresh child processes, and how many of them
    failed."""
    samples, failures = [], 0
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-only"]
    for _ in range(n):
        try:
            child = subprocess.run(cmd, capture_output=True, text=True,
                                   timeout=120, check=True)
            out = json.loads(child.stdout.splitlines()[-1])
            samples.append(float(out["setup_s"]))
        except (subprocess.SubprocessError, ValueError, KeyError, IndexError) as exc:
            print(f"perfbench: setup child failed: {exc}", file=sys.stderr)
            failures += 1
    return samples, failures


def _threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 1


def set_up(workload, seed: int) -> tuple[Ledger, list]:
    """Everything before the first timed op: the tracer's imports, the
    inputs, and one untimed, checked warm-up op.

    The run and every ``--setup-only`` child time exactly this.
    """
    import perf_trace  # noqa: F401

    ledger = Ledger(workload)
    inputs = workload.make_inputs(seed)
    ledger.run(inputs, 0)
    return ledger, inputs


def measure(workload, *, seed: int, seconds: float, trace: bool,
            setup_start: float, child_setups=None) -> dict:
    """One benchmark run of ``workload``; returns the result object.

    ``child_setups(n)`` measures setup in ``n`` more processes (see
    :func:`_child_setups`); without it setup is measured once.
    """
    import perf_trace

    ledger, inputs = set_up(workload, seed)
    setup = [time.perf_counter() - setup_start]

    def more_setups(n: int) -> None:
        if child_setups is not None and not trace:
            samples, failures = child_setups(n)
            setup.extend(samples)
            ledger.attempted += failures
            ledger.failed += failures

    more_setups(SETUP_CHILDREN // 2)

    # (op wall time, reference-kernel time around it) by input index,
    # for untraced and traced ops, and every reference-kernel time.
    plain: dict[int, list[tuple[float, float]]] = {}
    traced: dict[int, list[tuple[float, float]]] = {}
    kernel: list[float] = []
    tracer = perf_trace.Tracer() if trace else None

    def between_ops() -> float:
        times = [reference_kernel() for _ in range(KERNEL_REPEATS)]
        kernel.extend(times)
        return statistics.median(times)

    edges = [between_ops()]

    def timed(index: int, into: dict, with_tracer=None) -> None:
        dt = ledger.run(inputs, index, with_tracer)
        edges.append(between_ops())
        if dt is not None:
            into.setdefault(index, []).append((dt, (edges[-2] + edges[-1]) / 2))

    start = time.perf_counter()
    i = 0
    step = 0.0  # expected wall time of one loop iteration
    while i < len(inputs) or time.perf_counter() - start + step <= seconds:
        index = i % len(inputs)
        if tracer is None:
            timed(index, plain)
        else:
            # A traced and an untraced op on the same input, in
            # alternating order: their ratio is the tracing overhead and
            # their results must agree bit for bit.
            first_traced = i % 2 == 1
            for traced_now in (first_traced, not first_traced):
                if traced_now:
                    timed(index, traced, tracer)
                else:
                    timed(index, plain)
        i += 1
        step = (time.perf_counter() - start) / i
    more_setups(SETUP_CHILDREN - SETUP_CHILDREN // 2)

    if not plain or (trace and not traced):
        return _result(ledger, {})
    if trace:
        ok_traced = [dt for ts in traced.values() for dt, _ in ts]
        overhead = normalised_op_s(traced) / normalised_op_s(plain) - 1.0
        metrics = tracer.per_layer(ok_traced, overhead, ledger.counts)
        units = perf_trace.UNITS
    else:
        metrics = {
            "setup_s": normalised_setup_s(setup, kernel),
            "op_s": normalised_op_s(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    result = _result(ledger, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    ok_plain = [dt for ts in plain.values() for dt, _ in ts]
    result["printed"] = {
        "op_median_s": {"value": statistics.median(ok_plain), "unit": "s"},
        "ops_per_s": {"value": len(ok_plain) / sum(ok_plain), "unit": "1/s"},
        "failed_frac": {"value": ledger.failed / ledger.attempted, "unit": "ratio"},
        "kernel_quiet_ms": {"value": 1e3 * quiet_kernel_s(kernel), "unit": "ms"},
        **{k: {"value": ledger.first_quality[0][k], "unit": u}
           for k, u in workload.units.items() if 0 in ledger.first_quality},
    }
    result["samples"] = {"ops": len(ok_plain) + sum(map(len, traced.values())),
                         "setup": len(setup)}
    return result


def reference_kernel() -> float:
    """Wall time of a fixed mix of dict updates and small numpy calls,
    about a millisecond."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    a = np.arange(64.0)
    for i in range(3000):
        counts[i & 255] = counts.get(i & 255, 0) + 1
        if i % 10 == 0:
            a = np.minimum(a * 1.0001, 100.0)
            a.sum()
    return time.perf_counter() - t0


def normalised_op_s(samples: dict[int, list[tuple[float, float]]]) -> float:
    """Op time on a machine whose reference kernel takes
    :data:`REFERENCE_KERNEL_S`.

    Other tenants slow the whole machine down by up to half, in phases
    that last from seconds to longer than a run, so wall time, even the
    fastest op of a run, moves with the phases a run falls into.  The
    reference kernel slows down with the program's code, and the ratio
    of an op's time to the kernel's around it barely moves between
    phases.  Its median per input, averaged over the inputs so that each
    weighs once, is scaled to the reference kernel time.
    """
    return REFERENCE_KERNEL_S * statistics.fmean(
        statistics.median(dt / k for dt, k in ts) for ts in samples.values())


def normalised_setup_s(setup: list[float], kernel: list[float]) -> float:
    """Median setup time, scaled like :func:`normalised_op_s` by the
    run's quiet kernel time instead of the kernel around each setup."""
    return REFERENCE_KERNEL_S * statistics.median(setup) / quiet_kernel_s(kernel)


def quiet_kernel_s(kernel: list[float]) -> float:
    """The kernel's 2nd-percentile time in the run."""
    return sorted(kernel)[len(kernel) // 50]


def _result(ledger: Ledger, metrics: dict) -> dict:
    return {
        "correct": ledger.failed == 0 and bool(metrics),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _load_program()
    sys.path.insert(0, str(HERE))
    from perf_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        ledger, _ = set_up(workload, args.seed)
        if ledger.failed:
            return 1
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0

    result = measure(
        workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        setup_start=T0,
        child_setups=lambda n: _child_setups(args, n),
    )
    threads = _threads()
    if threads != 1:
        print(f"perfbench: {threads} threads after the run, expected 1",
              file=sys.stderr)
        result["attempted"] += 1
        result["failed"] += 1
        result["correct"] = False
    printed = result.pop("printed", {})
    samples = result.pop("samples", {})
    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"ops={samples.get('ops', 0)} setup_samples={samples.get('setup', 0)} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, m in {**result["metrics"], **printed}.items():
        print(f"{name:36s} {m['value']:.9g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
