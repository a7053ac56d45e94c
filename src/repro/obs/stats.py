"""Trace analysis behind ``ccf stats``: summarize a captured JSONL trace.

Computes, from the one event stream alone (no re-simulation):

* coflow lifecycle counts and the CCT distribution (p50/p95/p99, mean,
  max) -- the paper's headline metric;
* per-port bottleneck attribution: which send/recv port was the most
  utilized in each epoch, weighted by epoch duration -- the empirical
  counterpart of the paper's ``T = max(max_i send_i, max_j recv_j)``;
* failure/recovery counters and bytes lost;
* epoch statistics (count, busy time, mean duration) and how many
  epochs computed a fresh rate allocation vs reused the cached one.

Also reconstructs a :class:`~repro.network.simulator.SimulationResult`
from a trace so the existing text visualizations (``gantt``,
``throughput_sparkline``) render without re-running the simulation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (network -> obs)
    from repro.network.simulator import SimulationResult

__all__ = [
    "summarize_trace",
    "result_from_trace",
    "names_from_trace",
    "render_summary",
    "steady_state_stats",
]


def names_from_trace(events: Sequence[dict[str, Any]]) -> dict[int, str]:
    """Coflow id -> display name, from the submit events."""
    return {
        e["cid"]: (e.get("name") or f"cf{e['cid']}")
        for e in events
        if e["kind"] == "coflow_submit"
    }


def result_from_trace(events: Sequence[dict[str, Any]]) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` view from a JSONL event stream.

    Faithful for everything the consumers here need: completion times,
    CCTs, failed coflows, makespan, total bytes, the epoch timeline and
    the failure log.  (``n_epochs`` equals the number of epoch samples
    in the trace.)
    """
    # Imported here, not at module level: the simulator itself imports
    # repro.obs, and this is the one obs module that needs it back.
    from repro.network.recovery import FailureRecord
    from repro.network.simulator import Epoch, SimulationResult

    arrivals: dict[int, float] = {}
    volumes: dict[int, float] = {}
    completion: dict[int, float] = {}
    failed: dict[int, float] = {}
    epochs: list[Epoch] = []
    failures: list[FailureRecord] = []
    makespan = 0.0
    for e in events:
        kind = e["kind"]
        if kind == "coflow_submit":
            arrivals[e["cid"]] = e["arrival"]
            volumes[e["cid"]] = e["volume"]
        elif kind == "coflow_complete":
            completion[e["cid"]] = e["t"]
        elif kind == "coflow_abort":
            failed[e["cid"]] = e["t"]
        elif kind == "epoch":
            epochs.append(
                Epoch(
                    start=e["t"],
                    duration=e["dur"],
                    active_flows=e["flows"],
                    aggregate_rate=e["rate"],
                )
            )
        elif kind == "failure":
            failures.append(
                FailureRecord(
                    time=e["t"],
                    kind=e["failure_kind"],
                    port=e.get("port", -1),
                    coflow_id=e.get("cid", -1),
                    flows=e.get("flows", 0),
                    bytes_lost=e.get("bytes_lost", 0.0),
                    detail=e.get("detail", ""),
                )
            )
        elif kind == "run_end":
            makespan = e.get("makespan", makespan)
    ccts = {
        cid: t - arrivals.get(cid, 0.0) for cid, t in completion.items()
    }
    return SimulationResult(
        completion_times=completion,
        ccts=ccts,
        makespan=makespan or (max(completion.values()) if completion else 0.0),
        total_bytes=float(sum(volumes.values())),
        epochs=epochs,
        failures=failures,
        failed_coflows=failed,
        n_epochs=len(epochs),
    )


def _percentiles(values: list[float]) -> dict[str, float]:
    if not values:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    arr = np.asarray(values, dtype=float)
    return {
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
        "mean": float(arr.mean()),
        "max": float(arr.max()),
    }


def _weighted_percentiles(
    values: list[float], weights: list[float]
) -> dict[str, float]:
    """Weight-aware CCT distribution (lower weighted quantiles).

    ``pNN`` is the smallest value whose cumulative weight reaches NN% of
    the total -- with unit weights this coincides with the ordinary
    lower empirical quantile.  ``mean`` is the weighted mean and
    ``sum`` the weighted-CCT objective ``sum(w * cct)`` the
    approximation schedulers optimize.
    """
    if not values:
        return {
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
            "mean": 0.0, "max": 0.0, "sum": 0.0,
        }
    arr = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    order = np.argsort(arr, kind="stable")
    arr, w = arr[order], w[order]
    cum = np.cumsum(w)
    total = cum[-1]
    out = {}
    for q in (50, 95, 99):
        idx = int(np.searchsorted(cum, q / 100.0 * total, side="left"))
        out[f"p{q}"] = float(arr[min(idx, arr.size - 1)])
    out["mean"] = float((w * arr).sum() / total)
    out["max"] = float(arr.max())
    out["sum"] = float((w * arr).sum())
    return out


def _port_attribution(
    events: Sequence[dict[str, Any]], top_k: int
) -> dict[str, Any] | None:
    """Duration-weighted 'who was the bottleneck port' decomposition."""
    busy_s: dict[tuple[str, int], float] = {}
    attributed: dict[tuple[str, int], float] = {}
    total = 0.0
    sampled = False
    for e in events:
        if e["kind"] != "epoch":
            continue
        send, recv = e.get("port_busy_send"), e.get("port_busy_recv")
        if send is None or recv is None:
            continue
        sampled = True
        dur = e["dur"]
        if dur <= 0:
            continue
        total += dur
        peak, peak_key = 0.0, None
        for direction, fracs in (("send", send), ("recv", recv)):
            for port, frac in enumerate(fracs):
                if frac <= 0.0:
                    continue
                key = (direction, port)
                busy_s[key] = busy_s.get(key, 0.0) + frac * dur
                if frac > peak:
                    peak, peak_key = frac, key
        if peak_key is not None:
            attributed[peak_key] = attributed.get(peak_key, 0.0) + dur
    if not sampled:
        return None
    ranked = sorted(attributed.items(), key=lambda kv: -kv[1])[:top_k]
    return {
        "busy_time_total_s": total,
        "top": [
            {
                "dir": direction,
                "port": port,
                "bottleneck_s": round(share, 9),
                "bottleneck_frac": round(share / total, 6) if total else 0.0,
                "busy_s": round(busy_s.get((direction, port), 0.0), 9),
            }
            for (direction, port), share in ranked
        ],
    }


def summarize_trace(
    events: Sequence[dict[str, Any]],
    header: dict[str, Any] | None = None,
    *,
    top_k_ports: int = 5,
) -> dict[str, Any]:
    """Aggregate a trace into the ``ccf stats`` summary dict."""
    kinds: dict[str, int] = {}
    for e in events:
        kinds[e["kind"]] = kinds.get(e["kind"], 0) + 1
    result = result_from_trace(events)
    first_byte: dict[int, float] = {
        e["cid"]: e["t"] for e in events if e["kind"] == "coflow_first_byte"
    }
    admit: dict[int, float] = {
        e["cid"]: e["t"] for e in events if e["kind"] == "coflow_admit"
    }
    wait = [
        first_byte[cid] - admit[cid]
        for cid in first_byte
        if cid in admit
    ]
    failure_kinds: dict[str, int] = {}
    for r in result.failures:
        failure_kinds[r.kind] = failure_kinds.get(r.kind, 0) + 1
    epoch_durs = [e.duration for e in result.epochs]
    # A complete epoch stream begins at the first coflow's arrival (the
    # loop fast-forwards idle time without emitting samples, but never
    # skips a *scheduling* epoch).  A first sample later than that means
    # the head of the timeline is missing -- e.g. the capture went
    # through a ``timeline_limit`` ring buffer -- and the epoch-derived
    # statistics below describe only the retained window.
    if result.epochs:
        arrivals = [
            e["arrival"] for e in events if e["kind"] == "coflow_submit"
        ]
        origin = min(arrivals) if arrivals else 0.0
        first = result.epochs[0].start
        epochs_truncated = first - origin > 1e-9 + 1e-9 * abs(first)
    else:
        epochs_truncated = False
    summary: dict[str, Any] = {
        "header": dict(header or {}),
        "events_total": len(events),
        "coflows": {
            "submitted": kinds.get("coflow_submit", 0),
            "completed": kinds.get("coflow_complete", 0),
            "aborted": kinds.get("coflow_abort", 0),
        },
        "cct_seconds": _percentiles(list(result.ccts.values())),
        "first_byte_wait_seconds": _percentiles(wait),
        "makespan_seconds": result.makespan,
        "total_bytes": result.total_bytes,
        "epochs": {
            "count": len(result.epochs),
            "busy_time_s": float(sum(epoch_durs)),
            "mean_duration_s": (
                float(np.mean(epoch_durs)) if epoch_durs else 0.0
            ),
            "truncated": epochs_truncated,
        },
        "failures": {
            "by_kind": failure_kinds,
            "bytes_lost": result.bytes_lost,
            "aborted_coflows": len(result.failed_coflows),
        },
        "allocations": _allocation_counters(events),
        "platform": _platform_counters(events),
        "admission": _admission_counters(events),
        "ports": _port_attribution(events, top_k_ports),
    }
    # Weighted CCT distribution, present only when some submitted coflow
    # carries a non-unit weight -- unit-weight traces summarize exactly
    # as before.
    trace_weights = {
        e["cid"]: float(e.get("weight", 1.0))
        for e in events
        if e["kind"] == "coflow_submit"
    }
    if any(w != 1.0 for w in trace_weights.values()):
        done = sorted(result.ccts)
        summary["cct_weighted_seconds"] = _weighted_percentiles(
            [result.ccts[cid] for cid in done],
            [trace_weights.get(cid, 1.0) for cid in done],
        )
    steady = steady_state_stats(
        [
            (e["t"] - e["cct"], e["cct"])
            for e in events
            if e["kind"] == "coflow_complete"
        ]
    )
    if steady is not None:
        summary["cct_steady_seconds"] = steady
    return summary


def steady_state_stats(
    samples: Sequence[tuple[float, float]],
    *,
    batches: int = 20,
    min_samples: int = 40,
) -> dict[str, Any] | None:
    """Post-transient percentiles of a ``(time, value)`` sample stream.

    Open-loop runs start empty, so early CCTs are unrepresentatively
    fast; reporting the raw distribution understates steady-state
    latency.  This applies an MSER-style truncation: samples (sorted by
    time) are split into ``batches`` equal batches, and the warm-up
    cut is the batch boundary -- at most halfway in -- that minimizes
    the standard error of the remaining batch means.  Returns the
    percentiles of the retained samples plus the cut:

    ``{"p50", "p95", "p99", "mean", "max", "warmup_s", "warmup_samples",
    "samples"}``

    or None when there are fewer than ``min_samples`` samples (too few
    to call any window "steady").  Deterministic: no RNG involved.
    """
    if len(samples) < max(min_samples, 2 * batches):
        return None
    ordered = sorted(samples)
    values = np.asarray([v for _, v in ordered], dtype=float)
    n = len(values)
    batch = n // batches
    means = np.array(
        [values[i * batch : (i + 1) * batch].mean() for i in range(batches)]
    )
    best_k, best_sem = 0, np.inf
    for k in range(batches // 2 + 1):
        tail = means[k:]
        sem = float(tail.std(ddof=0)) / np.sqrt(len(tail))
        if sem < best_sem - 1e-15:
            best_sem, best_k = sem, k
    cut = best_k * batch
    kept = values[cut:]
    out = _percentiles(list(kept))
    out["warmup_s"] = float(ordered[cut][0] - ordered[0][0]) if cut else 0.0
    out["warmup_samples"] = int(cut)
    out["samples"] = int(len(kept))
    return out


def _admission_counters(
    events: Sequence[dict[str, Any]],
) -> dict[str, Any] | None:
    """Admission-control rulings from ``admission`` records, if any.

    Service-mode traces (``ccf serve --trace``) interleave the
    overload-control policy's decisions with the simulation stream;
    batch traces have none, in which case the section is ``None`` so
    old traces summarize exactly as before.
    """
    counts: dict[str, int] = {}
    shed_bytes = 0.0
    policy = ""
    for e in events:
        if e.get("kind") != "admission":
            continue
        decision = e.get("decision", "unknown")
        counts[decision] = counts.get(decision, 0) + 1
        if decision == "shed":
            shed_bytes += float(e.get("volume", 0.0))
        policy = e.get("policy") or policy
    if not counts:
        return None
    ruled = sum(counts.values())
    shed = counts.get("shed", 0)
    return {
        "policy": policy,
        "decisions": counts,
        "shed_fraction": shed / ruled if ruled else 0.0,
        "shed_bytes": shed_bytes,
    }


def _allocation_counters(
    events: Sequence[dict[str, Any]],
) -> dict[str, Any] | None:
    """Rate allocations computed vs reused, from the epochs' ``reused`` flag.

    With event-horizon batching the simulator reuses the last rate
    array on epochs that change nothing the discipline reads; each
    epoch sample says which it did.  Traces recorded before the flag
    existed have none, in which case the section is ``None``.
    """
    computed = reused = 0
    for e in events:
        if e["kind"] != "epoch" or "reused" not in e:
            continue
        if e["reused"]:
            reused += 1
        else:
            computed += 1
    total = computed + reused
    if not total:
        return None
    return {
        "computed": computed,
        "reused": reused,
        "reuse_frac": reused / total,
    }


def _platform_counters(
    events: Sequence[dict[str, Any]],
) -> dict[str, int] | None:
    """Supervision counters from ``platform_event`` records, if any.

    Chaos-run traces (``ccf chaos --trace``) interleave platform events
    (retries, cell timeouts, worker crashes, pool rebuilds, cache
    quarantines) with the simulation stream; plain simulator traces have
    none, in which case the section is ``None`` so old traces summarize
    exactly as before.
    """
    counts: dict[str, int] = {}
    for e in events:
        if e.get("kind") != "platform_event":
            continue
        name = e.get("event", "unknown")
        counts[name] = counts.get(name, 0) + 1
    return counts or None


def _fmt_s(v: float) -> str:
    return f"{v:.6g}"


def render_summary(summary: dict[str, Any]) -> str:
    """Human-readable text rendering of :func:`summarize_trace`."""
    lines: list[str] = []
    header = summary.get("header") or {}
    bits = [
        f"{k}={header[k]}"
        for k in ("version", "git", "scheduler", "seed")
        if header.get(k) is not None
    ]
    if bits:
        lines.append("trace: " + "  ".join(bits))
    c = summary["coflows"]
    lines.append(
        f"coflows: {c['submitted']} submitted, {c['completed']} completed, "
        f"{c['aborted']} aborted"
    )
    p = summary["cct_seconds"]
    lines.append(
        f"CCT (s): p50={_fmt_s(p['p50'])}  p95={_fmt_s(p['p95'])}  "
        f"p99={_fmt_s(p['p99'])}  mean={_fmt_s(p['mean'])}  "
        f"max={_fmt_s(p['max'])}"
    )
    wp = summary.get("cct_weighted_seconds")
    if wp:
        lines.append(
            f"CCT weighted (s): p50={_fmt_s(wp['p50'])}  "
            f"p95={_fmt_s(wp['p95'])}  p99={_fmt_s(wp['p99'])}  "
            f"mean={_fmt_s(wp['mean'])}  sum(w*cct)={_fmt_s(wp['sum'])}"
        )
    steady = summary.get("cct_steady_seconds")
    if steady:
        lines.append(
            f"CCT steady-state (s): p50={_fmt_s(steady['p50'])}  "
            f"p95={_fmt_s(steady['p95'])}  p99={_fmt_s(steady['p99'])}  "
            f"(warm-up {_fmt_s(steady['warmup_s'])} s, "
            f"{steady['warmup_samples']} samples excluded)"
        )
    admission = summary.get("admission")
    if admission:
        rulings = ", ".join(
            f"{k}={v}" for k, v in sorted(admission["decisions"].items())
        )
        policy = admission.get("policy") or "unknown"
        lines.append(
            f"admission ({policy}): {rulings}; shed fraction "
            f"{admission['shed_fraction']:.1%}"
        )
    lines.append(
        f"makespan: {_fmt_s(summary['makespan_seconds'])} s over "
        f"{summary['epochs']['count']} epochs "
        f"(busy {_fmt_s(summary['epochs']['busy_time_s'])} s)"
    )
    allocations = summary.get("allocations")
    if allocations:
        lines.append(
            f"allocations: {allocations['computed']} computed, "
            f"{allocations['reused']} reused (reuse fraction "
            f"{allocations['reuse_frac']:.1%})"
        )
    if summary["epochs"].get("truncated"):
        lines.append(
            "WARNING: epoch timeline is truncated (oldest samples "
            "dropped, e.g. by a timeline ring buffer); epoch counts, "
            "busy time and port attribution cover only the retained "
            "window"
        )
    ports = summary.get("ports")
    if ports is None:
        lines.append(
            "ports: no per-port samples in trace "
            "(captured with sample_ports=False)"
        )
    elif ports["top"]:
        lines.append("bottleneck attribution (duration-weighted):")
        for row in ports["top"]:
            lines.append(
                f"  {row['dir']:>4} port {row['port']:>3}: bottleneck "
                f"{row['bottleneck_frac']:.1%} of busy time "
                f"({_fmt_s(row['busy_s'])} busy-seconds)"
            )
    f = summary["failures"]
    if f["by_kind"]:
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(f["by_kind"].items()))
        lines.append(
            f"failures: {kinds}; bytes lost {f['bytes_lost']:.6g}; "
            f"{f['aborted_coflows']} coflows aborted"
        )
    else:
        lines.append("failures: none")
    platform = summary.get("platform")
    if platform:
        counters = ", ".join(
            f"{k}={v}" for k, v in sorted(platform.items())
        )
        lines.append(f"platform faults absorbed: {counters}")
    return "\n".join(lines)
