"""Trace exporters: JSONL, Chrome ``trace_event`` JSON, Prometheus text.

All three consume the same event stream a :class:`repro.obs.Tracer`
records (see :mod:`repro.obs.instrument` for the schema):

* **JSONL** -- one JSON object per line, reproducibility header first.
  The canonical interchange format: ``ccf stats``, ``ccf gantt
  --from-trace`` and ``ccf report --from-trace`` all read it back.
* **Chrome trace** -- the ``trace_event`` array format understood by
  Perfetto and ``chrome://tracing``: coflow lifetimes as duration
  events on a "coflows" process, per-port busy intervals as a Gantt on
  a "ports" process, counter tracks for flows in flight and aggregate
  rate, instant events for failures.
* **Prometheus** -- text exposition dump of the metrics registry.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

from repro.core.checks import positive
from repro.obs.instrument import Tracer
from repro.obs.metrics import MetricsRegistry, render_prometheus

__all__ = [
    "StreamingTracer",
    "write_jsonl",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_prometheus",
    "write_trace",
    "TRACE_FORMATS",
]

TRACE_FORMATS = ("jsonl", "chrome", "prom")

#: trace_event pids: one synthetic "process" per track family.
_PID_COFLOWS = 1
_PID_PORTS = 2
_PID_CONTROL = 3

_US = 1e6  # trace_event timestamps are microseconds


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------


def write_jsonl(
    path: str | Path,
    events: Sequence[dict[str, Any]],
    header: dict[str, Any] | None = None,
) -> int:
    """Write header + events, one JSON object per line; returns #lines."""
    lines = [json.dumps({"kind": "header", **(header or {})})]
    lines += [json.dumps(e) for e in events]
    Path(path).write_text("\n".join(lines) + "\n")
    return len(lines)


def read_jsonl(
    path: str | Path,
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Read a JSONL trace back as ``(header, events)``."""
    header: dict[str, Any] = {}
    events: list[dict[str, Any]] = []
    for lineno, line in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
        if not isinstance(record, dict) or "kind" not in record:
            raise ValueError(f"{path}:{lineno}: not a trace record")
        if record["kind"] == "header":
            header = {k: v for k, v in record.items() if k != "kind"}
        else:
            events.append(record)
    return header, events


class StreamingTracer(Tracer):
    """A :class:`Tracer` that flushes its events to a JSONL file as it goes.

    The plain tracer accumulates every event in RAM, which is fine for
    batch runs but unbounded for the open-loop service mode (millions of
    epochs).  This variant writes the reproducibility header line on
    construction and appends events to the file every ``flush_every``
    emissions, keeping at most that many events in memory.  The on-disk
    result is byte-identical to :func:`write_jsonl` of an equivalent
    in-RAM tracer; :func:`read_jsonl` reads it back unchanged.

    The metrics registry still aggregates over the *whole* run (it is
    O(metric names), not O(events)), so ``ccf stats``-style counters
    survive the flushes.  ``close()`` flushes the tail and closes the
    file; it is idempotent.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        flush_every: int = 4096,
        header: dict[str, Any] | None = None,
        sample_ports: bool = True,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        positive("flush_every", flush_every)
        super().__init__(
            header=header, sample_ports=sample_ports, metrics=metrics
        )
        self.path = Path(path)
        self.flush_every = int(flush_every)
        self.events_written = 0
        self._fh = self.path.open("w")
        self._fh.write(json.dumps({"kind": "header", **self.header}) + "\n")

    def emit(self, kind: str, t: float, **fields: Any) -> None:
        super().emit(kind, t, **fields)
        if len(self.events) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Append buffered events to the file and drop them from RAM."""
        if self._fh.closed or not self.events:
            return
        self._fh.write(
            "".join(json.dumps(e) + "\n" for e in self.events)
        )
        self._fh.flush()
        self.events_written += len(self.events)
        self.events.clear()

    def close(self) -> None:
        if self._fh.closed:
            return
        self.flush()
        self._fh.close()


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------


def _meta(pid: int, name: str) -> dict[str, Any]:
    return {
        "name": "process_name",
        "ph": "M",
        "ts": 0,
        "pid": pid,
        "tid": 0,
        "args": {"name": name},
    }


def to_chrome_trace(
    events: Sequence[dict[str, Any]],
    header: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Convert an event stream to the Chrome ``trace_event`` JSON object.

    Loadable in Perfetto / ``chrome://tracing``; simulation seconds map
    to trace microseconds, so one trace "second" is one simulated
    microsecond-scale tick regardless of the simulated clock range.
    """
    out: list[dict[str, Any]] = [
        _meta(_PID_COFLOWS, "coflows"),
        _meta(_PID_PORTS, "ports"),
        _meta(_PID_CONTROL, "control"),
    ]
    admit: dict[int, float] = {}
    names: dict[int, str] = {}
    for e in events:
        kind, t = e["kind"], e["t"]
        if kind == "coflow_submit":
            names[e["cid"]] = e.get("name") or f"cf{e['cid']}"
        elif kind == "coflow_admit":
            admit[e["cid"]] = t
        elif kind in ("coflow_complete", "coflow_abort"):
            cid = e["cid"]
            start = admit.pop(cid, t)
            label = names.get(cid, f"cf{cid}")
            if kind == "coflow_abort":
                label += " [aborted]"
            out.append(
                {
                    "name": label,
                    "cat": "coflow",
                    "ph": "X",
                    "ts": start * _US,
                    "dur": max(t - start, 0.0) * _US,
                    "pid": _PID_COFLOWS,
                    "tid": cid,
                    "args": {k: v for k, v in e.items() if k != "kind"},
                }
            )
        elif kind == "epoch":
            out.append(
                {
                    "name": "active_flows",
                    "ph": "C",
                    "ts": t * _US,
                    "pid": _PID_CONTROL,
                    "tid": 0,
                    "args": {"flows": e["flows"]},
                }
            )
            out.append(
                {
                    "name": "aggregate_rate",
                    "ph": "C",
                    "ts": t * _US,
                    "pid": _PID_CONTROL,
                    "tid": 0,
                    "args": {"bytes_per_s": e["rate"]},
                }
            )
            send = e.get("port_busy_send")
            recv = e.get("port_busy_recv")
            if send is not None and recv is not None:
                for port, (s, r) in enumerate(zip(send, recv)):
                    busy = max(s, r)
                    if busy <= 0.0:
                        continue
                    out.append(
                        {
                            "name": f"busy {busy:.0%}",
                            "cat": "port",
                            "ph": "X",
                            "ts": t * _US,
                            "dur": e["dur"] * _US,
                            "pid": _PID_PORTS,
                            "tid": port,
                            "args": {"send": s, "recv": r},
                        }
                    )
        elif kind == "failure":
            out.append(
                {
                    "name": e["failure_kind"],
                    "cat": "failure",
                    "ph": "i",
                    "s": "g",
                    "ts": t * _US,
                    "pid": _PID_CONTROL,
                    "tid": 0,
                    "args": {k: v for k, v in e.items() if k != "kind"},
                }
            )
        elif kind == "stage_attempt":
            out.append(
                {
                    "name": f"{e['stage']}#{e['attempt']}",
                    "cat": "stage",
                    "ph": "X",
                    "ts": t * _US,
                    "dur": e["dur"] * _US,
                    "pid": _PID_CONTROL,
                    "tid": 1,
                    "args": {k: v for k, v in e.items() if k != "kind"},
                }
            )
        elif kind == "planner_phase":
            out.append(
                {
                    "name": f"plan {e['stage']}",
                    "cat": "planner",
                    "ph": "i",
                    "s": "t",
                    "ts": t * _US,
                    "pid": _PID_CONTROL,
                    "tid": 2,
                    "args": {k: v for k, v in e.items() if k != "kind"},
                }
            )
    # Coflows still admitted at stream end (aborted runs cut short).
    for cid, start in admit.items():
        out.append(
            {
                "name": names.get(cid, f"cf{cid}") + " [unfinished]",
                "cat": "coflow",
                "ph": "X",
                "ts": start * _US,
                "dur": 0,
                "pid": _PID_COFLOWS,
                "tid": cid,
                "args": {},
            }
        )
    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "metadata": dict(header or {}),
    }


def write_chrome_trace(
    path: str | Path,
    events: Sequence[dict[str, Any]],
    header: dict[str, Any] | None = None,
) -> int:
    """Write the Chrome trace JSON; returns the number of trace events."""
    doc = to_chrome_trace(events, header)
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")
    return len(doc["traceEvents"])


# ---------------------------------------------------------------------------
# Prometheus
# ---------------------------------------------------------------------------


def write_prometheus(
    path: str | Path,
    metrics: MetricsRegistry,
    header: dict[str, Any] | None = None,
) -> int:
    """Write the metrics registry in text exposition format."""
    text = render_prometheus(metrics)
    if header:
        preamble = "".join(
            f"# {k}: {json.dumps(v)}\n" for k, v in sorted(header.items())
        )
        text = preamble + text
    Path(path).write_text(text)
    return text.count("\n")


def write_trace(tracer: Tracer, path: str | Path, fmt: str = "jsonl") -> int:
    """Write a tracer's capture in the requested format; returns a count.

    ``jsonl``/``chrome`` return the number of records written; ``prom``
    the number of text lines.
    """
    if fmt == "jsonl":
        return write_jsonl(path, tracer.events, tracer.header)
    if fmt == "chrome":
        return write_chrome_trace(path, tracer.events, tracer.header)
    if fmt == "prom":
        return write_prometheus(path, tracer.metrics, tracer.header)
    raise ValueError(f"unknown trace format {fmt!r}; pick from {TRACE_FORMATS}")
