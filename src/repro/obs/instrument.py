"""The instrumentation surface threaded through the CCF pipeline.

One object -- an :class:`Instrumentation` -- receives every observable
moment of a run through one method, ``emit(kind, t, **fields)``: coflow
lifecycle transitions (submit -> admit -> first-byte -> complete/abort),
per-epoch samples (port utilization, residual bytes, queue depth),
fabric failure/recovery records, planner phases, job-stage attempts,
sweep-platform interventions and admission rulings.  The base class is
a **no-op** and ``enabled`` is False, so the simulator's hot path pays
exactly one boolean test per guarded site when observability is off
(the bench gate pins this).

The event *is* the record: ``kind`` and ``t`` plus the fields the schema
below lists for that kind, in that order and with those types (``int``
ids and counts, ``float`` times and volumes, ``str`` labels).  Producers
pass the fields already typed, so a sink can store them as they arrive
and a new event kind costs one schema line, not a new method on every
sink.

:class:`Tracer` is the recording implementation: it appends one event
dict per ``emit`` (the one event stream every exporter and ``ccf stats``
consume) and keeps a :class:`~repro.obs.metrics.MetricsRegistry` of
counters/gauges/histograms up to date as events arrive.

Event stream schema (one dict per event, ``kind`` discriminates)::

    run_start      t, coflows, total_bytes
    coflow_submit  t, cid, arrival, volume, width, name, weight
    coflow_admit   t, cid
    coflow_first_byte  t, cid
    coflow_complete    t, cid, cct
    coflow_abort   t, cid
    epoch          t (start), dur, flows, rate  [+ coflows, queue,
                   residual, port_busy_send, port_busy_recv when sampled]
    failure        t, failure_kind, port, cid, flows, bytes_lost, detail
    planner_phase  t, stage, wall_s, strategy
    stage_attempt  t (start), dur, stage, attempt, status, cid
    run_end        t, makespan
    platform_event t, event (retry | cell_timeout | worker_crash |
                   pool_rebuild | quarantine | interrupt), experiment,
                   cell, attempt, detail
    admission      t, decision (admit | defer | shed), cid, volume,
                   reason, policy

Times are simulation seconds except ``wall_s`` (planner wall-clock) and
``platform_event`` times, which are wall-clock unix seconds: platform
events describe the *machinery* running the experiment (the sweep
engine's retries, timeouts and crash recoveries), not the simulated
fabric, so there is no simulation clock to stamp them with.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.metrics import MetricsRegistry

__all__ = ["Instrumentation", "Tracer", "MultiInstrumentation"]

#: Sub-second..years log buckets for CCT / epoch-duration histograms.
_TIME_BUCKETS = tuple(10.0 ** e for e in range(-6, 10))

#: Kinds counted per value of one of their fields:
#: kind -> (metric name, help text, label field).
_LABELLED_COUNTERS = {
    "failure": (
        "failure_events_total", "failure-log records by kind",
        "failure_kind",
    ),
    "stage_attempt": (
        "stage_attempts_total", "job stage attempts by outcome", "status",
    ),
    "platform_event": (
        "platform_events_total", "supervised-execution interventions",
        "event",
    ),
    "admission": (
        "admission_decisions_total",
        "service-mode admission rulings by decision", "decision",
    ),
}


class Instrumentation:
    """No-op observability sink -- subclass and override :meth:`emit`.

    ``enabled`` gates every emission site in the simulator; the other
    two flags let a sink opt out of the emissions that cost more than a
    method call to *produce* (first-byte detection needs a per-epoch
    mask, the epoch sample fields need per-epoch reductions and port
    samples per-port bincounts).
    """

    #: Master switch: emission sites are skipped entirely when False.
    enabled: bool = False
    #: Whether coflow first-byte detection and the epoch sample fields
    #: (coflows, queue, residual) should be produced (per-epoch cost).
    wants_flow_events: bool = False
    #: Whether epoch samples should include per-port busy fractions.
    wants_port_samples: bool = False

    def emit(self, kind: str, t: float, **fields: Any) -> None:
        """One event of ``kind`` at time ``t`` (see the module schema)."""

    def close(self) -> None:
        """Flush/teardown hook for sinks holding external resources."""


class Tracer(Instrumentation):
    """Recording instrumentation: event list + live metrics registry.

    Parameters
    ----------
    header:
        Reproducibility header (:func:`repro.obs.header.repro_header`)
        stored alongside the events and written first by the exporters.
    sample_ports:
        Record per-port busy fractions in every epoch sample.  Costs two
        bincounts per epoch and ``2 * n_ports`` floats per sample; turn
        off for very long runs where only lifecycle events matter.
    metrics:
        Registry to update (defaults to a fresh one).
    """

    enabled = True
    wants_flow_events = True

    def __init__(
        self,
        *,
        header: dict[str, Any] | None = None,
        sample_ports: bool = True,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.header: dict[str, Any] = dict(header or {})
        self.events: list[dict[str, Any]] = []
        self.metrics = metrics or MetricsRegistry()
        self.wants_port_samples = bool(sample_ports)
        m = self.metrics
        self._epochs = m.counter("epochs_total", "simulator epochs executed")
        self._submitted = m.counter(
            "coflows_submitted_total", "coflows entering the run"
        )
        self._completed = m.counter(
            "coflows_completed_total", "coflows that finished"
        )
        self._aborted = m.counter(
            "coflows_aborted_total", "coflows abandoned by recovery"
        )
        self._bytes_lost = m.counter(
            "bytes_lost_total", "bytes lost to failures (re-sent or abandoned)"
        )
        self._port_failures = m.counter(
            "port_failures_total", "port-failure events observed"
        )
        self._cct = m.histogram(
            "cct_seconds", "coflow completion time", buckets=_TIME_BUCKETS
        )
        self._epoch_dur = m.histogram(
            "epoch_duration_seconds", "epoch length", buckets=_TIME_BUCKETS
        )
        self._sim_time = m.gauge("sim_time_seconds", "simulation clock")
        self._active_flows = m.gauge("active_flows", "flows in flight")
        self._active_coflows = m.gauge("active_coflows", "coflows in flight")
        self._queue_depth = m.gauge(
            "queue_depth", "coflows arrived-but-not-admitted"
        )
        self._residual = m.gauge(
            "residual_bytes", "unfinished volume across active flows"
        )

    def emit(self, kind: str, t: float, **fields: Any) -> None:
        """Update the metrics ``kind`` drives, then record the event."""
        if kind == "epoch":
            duration = fields["dur"]
            self._epochs.inc()
            self._epoch_dur.observe(duration)
            self._sim_time.set(t + duration)
            self._active_flows.set(fields["flows"])
            if "coflows" in fields:
                self._active_coflows.set(fields["coflows"])
                self._queue_depth.set(fields["queue"])
                self._residual.set(fields["residual"])
            for direction in ("send", "recv"):
                for port, frac in enumerate(
                    fields.get(f"port_busy_{direction}", ())
                ):
                    if frac > 0.0:
                        self.metrics.counter(
                            "port_busy_seconds_total",
                            "per-port busy time (utilization x duration)",
                            labels={"port": str(port), "dir": direction},
                        ).inc(frac * duration)
        elif kind == "coflow_submit":
            self._submitted.inc()
        elif kind == "coflow_complete":
            self._completed.inc()
            self._cct.observe(fields["cct"])
        elif kind == "coflow_abort":
            self._aborted.inc()
        elif kind == "run_end":
            self._sim_time.set(t)
        elif kind == "planner_phase":
            self.metrics.counter(
                "planner_phases_total", "planning phases executed"
            ).inc()
            self.metrics.counter(
                "planner_seconds_total", "wall-clock planning time"
            ).inc(fields["wall_s"])
        elif kind == "failure":
            if fields["failure_kind"] == "port_failed":
                self._port_failures.inc()
            if fields["bytes_lost"]:
                self._bytes_lost.inc(fields["bytes_lost"])
        labelled = _LABELLED_COUNTERS.get(kind)
        if labelled is not None:
            name, help_text, field = labelled
            self.metrics.counter(
                name, help_text, labels={field: fields[field]}
            ).inc()
        event = {"kind": kind, "t": float(t)}
        event.update(fields)
        self.events.append(event)


class MultiInstrumentation(Instrumentation):
    """Fan one emission stream out to several sinks."""

    def __init__(self, children: Iterable[Instrumentation]) -> None:
        self.children = [c for c in children if c is not None]
        self.enabled = any(c.enabled for c in self.children)
        self.wants_flow_events = any(
            c.wants_flow_events for c in self.children
        )
        self.wants_port_samples = any(
            c.wants_port_samples for c in self.children
        )

    def emit(self, kind: str, t: float, **fields: Any) -> None:
        for c in self.children:
            c.emit(kind, t, **fields)

    def close(self) -> None:
        for c in self.children:
            c.close()
