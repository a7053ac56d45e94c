"""Text-mode visualization of simulation timelines.

Terminal-friendly renderings of a run: a Gantt chart of coflow lifetimes
and a per-epoch fabric-throughput sparkline.  No plotting dependency --
these are meant for examples, debugging and log files.
"""

from __future__ import annotations

from repro.core.checks import at_least, positive
from repro.network.simulator import SimulationResult

__all__ = ["gantt", "throughput_sparkline"]

_BLOCKS = " ▁▂▃▄▅▆▇█"


def gantt(
    result: SimulationResult,
    *,
    width: int = 60,
    names: dict[int, str] | None = None,
) -> str:
    """ASCII Gantt chart of coflow lifetimes (arrival -> completion).

    Parameters
    ----------
    result:
        A finished simulation.
    width:
        Chart width in characters.
    names:
        Optional coflow-id -> label mapping; defaults to ``cf<id>``.
    """
    if not result.completion_times:
        return "(no coflows)"
    at_least("width", width, 10)
    makespan = result.makespan
    if makespan <= 0:
        return "(instantaneous run)"

    lines = []
    label_w = max(
        len((names or {}).get(cid, f"cf{cid}"))
        for cid in result.completion_times
    )
    for cid in sorted(result.completion_times):
        end = result.completion_times[cid]
        start = end - result.ccts[cid]
        a = int(round(start / makespan * (width - 1)))
        b = max(int(round(end / makespan * (width - 1))), a)
        bar = " " * a + "█" * (b - a + 1)
        label = (names or {}).get(cid, f"cf{cid}").rjust(label_w)
        lines.append(f"{label} |{bar:<{width}}| {result.ccts[cid]:.2f}s")
    lines.append(
        f"{'':>{label_w}} +{'-' * width}+ makespan {makespan:.2f}s"
    )
    return "\n".join(lines)


def throughput_sparkline(
    result: SimulationResult, *, width: int = 60
) -> str:
    """Sparkline of aggregate fabric throughput over time.

    Requires the run to have been recorded with ``record_timeline=True``;
    raises otherwise.
    """
    if not result.epochs:
        raise ValueError(
            "no timeline recorded; construct the simulator with "
            "record_timeline=True"
        )
    positive("width", width)
    makespan = result.makespan
    if makespan <= 0:
        return ""
    # Time-weighted resampling of the epoch rates onto `width` buckets.
    buckets = [0.0] * width
    for e in result.epochs:
        if e.duration <= 0:
            continue
        lo = e.start / makespan * width
        hi = (e.start + e.duration) / makespan * width
        i = int(lo)
        while i < hi and i < width:
            seg = min(i + 1, hi) - max(i, lo)
            buckets[i] += e.aggregate_rate * seg
            i += 1
    peak = max(buckets) or 1.0
    chars = [
        _BLOCKS[min(int(b / peak * (len(_BLOCKS) - 1)), len(_BLOCKS) - 1)]
        for b in buckets
    ]
    return "".join(chars)
