"""``repro.obs`` -- observability for the CCF pipeline.

A zero-overhead-when-disabled instrumentation layer threaded through the
simulator, schedulers, planners and job executor:

* :class:`Instrumentation` -- the no-op hook surface the pipeline calls
  into (coflow lifecycle, epoch samples, failures, planner phases,
  stage attempts).
* :class:`Tracer` -- the recording implementation: one structured event
  stream plus a live :class:`MetricsRegistry`.
* Exporters -- JSONL (canonical interchange), Chrome ``trace_event``
  JSON (Perfetto / ``chrome://tracing``), Prometheus text.
* :func:`summarize_trace` / ``ccf stats`` -- CCT percentiles, per-port
  bottleneck attribution, failure counts from a captured trace.
* :func:`repro_header` -- the provenance record embedded in every
  trace / bench / report artifact.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "exporters": (
        "TRACE_FORMATS",
        "StreamingTracer",
        "read_jsonl",
        "to_chrome_trace",
        "write_chrome_trace",
        "write_jsonl",
        "write_prometheus",
        "write_trace",
    ),
    "header": ("git_describe", "repro_header"),
    "instrument": ("Instrumentation", "MultiInstrumentation", "Tracer"),
    "metrics": (
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "render_prometheus",
    ),
    "stats": (
        "names_from_trace",
        "render_summary",
        "result_from_trace",
        "steady_state_stats",
        "summarize_trace",
    ),
})
