"""``ccf stats`` internals: trace summaries, attribution, reconstruction."""

import pytest

from repro.network import Coflow, CoflowSimulator, Fabric, Flow
from repro.network.dynamics import FabricDynamics, RateEvent
from repro.network.schedulers import FairSharingScheduler, make_scheduler
from repro.network.visualize import gantt
from repro.obs import (
    Tracer,
    names_from_trace,
    render_summary,
    result_from_trace,
    summarize_trace,
)
from repro.obs.header import repro_header
from repro.obs.stats import _percentiles


def _run(tracer, **kwargs):
    sim = CoflowSimulator(
        Fabric(n_ports=3, rate=1.0),
        make_scheduler("sebf"),
        instrumentation=tracer,
        **kwargs,
    )
    return sim.run(
        [
            Coflow([Flow(0, 1, 4.0), Flow(1, 2, 2.0)], 0.0, coflow_id=0,
                   name="alpha"),
            Coflow([Flow(2, 0, 3.0)], 1.0, coflow_id=1),
        ]
    )


class TestPercentiles:
    def test_empty(self):
        p = _percentiles([])
        assert p == {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0,
                     "max": 0.0}

    def test_order(self):
        p = _percentiles([1.0, 2.0, 3.0, 100.0])
        assert p["p50"] <= p["p95"] <= p["p99"] <= p["max"] == 100.0


class TestSummarize:
    def test_counts_and_cct(self):
        tracer = Tracer()
        res = _run(tracer)
        s = summarize_trace(tracer.events, tracer.header)
        assert s["coflows"] == {"submitted": 2, "completed": 2, "aborted": 0}
        assert s["makespan_seconds"] == res.makespan
        assert s["total_bytes"] == res.total_bytes
        assert s["cct_seconds"]["max"] == pytest.approx(max(res.ccts.values()))
        assert 0 < s["epochs"]["count"] <= res.n_epochs
        assert s["failures"]["by_kind"] == {}

    def test_port_attribution(self):
        tracer = Tracer()
        _run(tracer)
        s = summarize_trace(tracer.events)
        assert s["ports"] is not None
        top = s["ports"]["top"]
        assert top
        fracs = [r["bottleneck_frac"] for r in top]
        assert fracs == sorted(fracs, reverse=True)
        assert sum(fracs) <= 1.0 + 1e-9
        assert all(r["dir"] in ("send", "recv") for r in top)

    def test_no_port_samples(self):
        tracer = Tracer(sample_ports=False)
        _run(tracer)
        s = summarize_trace(tracer.events)
        assert s["ports"] is None

    def test_failures_counted(self):
        tracer = Tracer()
        res = _run(
            tracer,
            dynamics=FabricDynamics([RateEvent.failure(0.5, 0)]),
            recovery="abort",
        )
        s = summarize_trace(tracer.events)
        assert s["coflows"]["aborted"] == len(res.failed_coflows) > 0
        assert s["failures"]["by_kind"].get("port_failed") == 1
        assert s["failures"]["bytes_lost"] == res.bytes_lost

    def test_first_byte_wait(self):
        tracer = Tracer()
        _run(tracer)
        s = summarize_trace(tracer.events)
        assert s["first_byte_wait_seconds"]["max"] >= 0.0


class TestRenderSummary:
    def test_text_sections(self):
        tracer = Tracer(header=repro_header(scheduler="sebf", seed=1))
        _run(tracer)
        text = render_summary(summarize_trace(tracer.events, tracer.header))
        assert "trace: " in text
        assert "scheduler=sebf" in text
        assert "coflows: 2 submitted" in text
        assert "CCT (s): p50=" in text
        assert "bottleneck attribution" in text
        assert "failures: none" in text

    def test_no_ports_message(self):
        tracer = Tracer(sample_ports=False)
        _run(tracer)
        text = render_summary(summarize_trace(tracer.events))
        assert "no per-port samples" in text


class TestResultFromTrace:
    def test_reconstruction_matches(self):
        tracer = Tracer()
        res = _run(tracer, record_timeline=True)
        rebuilt = result_from_trace(tracer.events)
        assert rebuilt.ccts == res.ccts
        assert rebuilt.completion_times == res.completion_times
        assert rebuilt.makespan == res.makespan
        assert rebuilt.total_bytes == res.total_bytes
        assert len(rebuilt.epochs) == len(res.epochs)
        assert [e.start for e in rebuilt.epochs] == [
            e.start for e in res.epochs
        ]

    def test_failures_rebuilt(self):
        tracer = Tracer()
        res = _run(
            tracer,
            dynamics=FabricDynamics([RateEvent.failure(0.5, 0)]),
            recovery="abort",
        )
        rebuilt = result_from_trace(tracer.events)
        assert rebuilt.failed_coflows == res.failed_coflows
        assert [r.kind for r in rebuilt.failures] == [
            r.kind for r in res.failures
        ]
        assert rebuilt.bytes_lost == res.bytes_lost

    def test_gantt_renders_from_rebuilt(self):
        tracer = Tracer()
        _run(tracer)
        rebuilt = result_from_trace(tracer.events)
        chart = gantt(rebuilt, names=names_from_trace(tracer.events))
        assert "alpha" in chart
        assert "makespan" in chart

    def test_names_from_trace(self):
        tracer = Tracer()
        _run(tracer)
        assert names_from_trace(tracer.events) == {0: "alpha", 1: "cf1"}


class TestHeader:
    def test_header_fields(self):
        h = repro_header(
            seed=5, scheduler="fair", fabric=Fabric(n_ports=4, rate=2.0),
            strategy="ccf",
        )
        assert h["schema"] == 1
        assert h["package"] == "repro"
        assert h["version"]
        assert h["seed"] == 5
        assert h["scheduler"] == "fair"
        assert h["fabric"] == {"n_ports": 4, "rate": 2.0}
        assert h["strategy"] == "ccf"
        assert "python" in h["platform"]

    def test_header_minimal(self):
        h = repro_header()
        assert "seed" not in h and "scheduler" not in h and "fabric" not in h


class _Polls:
    """A source that releases nothing, polled every 0.25 s until 8 s."""

    def next_time(self, now):
        nxt = (int(now / 0.25) + 1) * 0.25
        return nxt if nxt < 8.0 else None

    def take(self, now, slack):
        return []


class TestAllocationCounters:
    def _fair_run(self, batch_events):
        calls = []

        class Counting(FairSharingScheduler):
            def allocate(self, ctx):
                calls.append(ctx.time)
                return super().allocate(ctx)

        tracer = Tracer()
        CoflowSimulator(
            Fabric(n_ports=3, rate=1.0), Counting(),
            instrumentation=tracer, batch_events=batch_events,
        ).run(
            [Coflow([Flow(0, 1, 4.0), Flow(1, 2, 2.0)], 0.0, coflow_id=0)],
            source=_Polls(),
        )
        return tracer, len(calls)

    def test_reuse_is_counted(self):
        tracer, n_allocations = self._fair_run(batch_events=True)
        s = summarize_trace(tracer.events, tracer.header)
        alloc = s["allocations"]
        assert alloc["computed"] == n_allocations
        assert alloc["reused"] == s["epochs"]["count"] - n_allocations > 0
        assert alloc["reuse_frac"] == alloc["reused"] / s["epochs"]["count"]
        assert (
            f"allocations: {alloc['computed']} computed, "
            f"{alloc['reused']} reused" in render_summary(s)
        )

    def test_no_reuse_without_batching(self):
        tracer, n_allocations = self._fair_run(batch_events=False)
        s = summarize_trace(tracer.events, tracer.header)
        assert s["allocations"] == {
            "computed": n_allocations, "reused": 0, "reuse_frac": 0.0,
        }

    def test_traces_without_the_flag_have_no_section(self):
        tracer = Tracer()
        _run(tracer)
        events = [
            {k: v for k, v in e.items() if k != "reused"}
            for e in tracer.events
        ]
        s = summarize_trace(events, tracer.header)
        assert s["allocations"] is None
        assert "allocations:" not in render_summary(s)


class TestPlatformCounters:
    def test_old_traces_have_no_platform_section(self):
        tracer = Tracer()
        _run(tracer)
        s = summarize_trace(tracer.events, tracer.header)
        assert s["platform"] is None
        assert "platform faults" not in render_summary(s)

    def test_platform_events_are_counted_and_rendered(self):
        tracer = Tracer()
        _run(tracer)
        for event in ("retry", "retry", "cell_timeout", "worker_crash",
                      "quarantine"):
            tracer.emit(
                "platform_event", 0.0, event=event, experiment="chaos",
                cell="scenario=x", attempt=0, detail="",
            )
        s = summarize_trace(tracer.events, tracer.header)
        assert s["platform"] == {
            "retry": 2,
            "cell_timeout": 1,
            "worker_crash": 1,
            "quarantine": 1,
        }
        text = render_summary(s)
        assert "platform faults absorbed" in text
        assert "retry=2" in text

    def test_simulation_sections_unaffected_by_platform_events(self):
        # The schema is additive: the same trace with platform events
        # interleaved summarizes the simulation identically.
        tracer = Tracer()
        _run(tracer)
        before = summarize_trace(tracer.events, tracer.header)
        tracer.emit(
            "platform_event", 1.0, event="pool_rebuild", experiment="chaos",
            cell="", attempt=0, detail="",
        )
        after = summarize_trace(tracer.events, tracer.header)
        assert after["coflows"] == before["coflows"]
        assert after["cct_seconds"] == before["cct_seconds"]
        assert after["failures"] == before["failures"]
        assert after["events_total"] == before["events_total"] + 1


class TestTruncatedTimeline:
    """Detection of partial (ring-buffered) epoch streams in traces."""

    def _truncate_epochs(self, events, drop):
        """Drop the first ``drop`` epoch samples, keep everything else."""
        seen = 0
        out = []
        for e in events:
            if e["kind"] == "epoch" and seen < drop:
                seen += 1
                continue
            out.append(e)
        assert seen == drop
        return out

    def test_complete_trace_is_not_flagged(self):
        tracer = Tracer()
        _run(tracer)
        s = summarize_trace(tracer.events, tracer.header)
        assert s["epochs"]["truncated"] is False
        assert "WARNING" not in render_summary(s)

    def test_missing_head_is_flagged(self):
        tracer = Tracer()
        _run(tracer)
        events = self._truncate_epochs(tracer.events, 2)
        s = summarize_trace(events, tracer.header)
        assert s["epochs"]["truncated"] is True
        full = summarize_trace(tracer.events, tracer.header)
        assert s["epochs"]["count"] == full["epochs"]["count"] - 2
        text = render_summary(s)
        assert "WARNING" in text and "truncated" in text

    def test_truncation_does_not_change_coflow_stats(self):
        # CCTs come from lifecycle events, not epoch samples: the flag
        # must warn without perturbing the sections that are still exact.
        tracer = Tracer()
        _run(tracer)
        full = summarize_trace(tracer.events, tracer.header)
        cut = summarize_trace(
            self._truncate_epochs(tracer.events, 1), tracer.header
        )
        assert cut["coflows"] == full["coflows"]
        assert cut["cct_seconds"] == full["cct_seconds"]

    def test_epochless_trace_is_not_flagged(self):
        tracer = Tracer()
        _run(tracer)
        events = [e for e in tracer.events if e["kind"] != "epoch"]
        s = summarize_trace(events, tracer.header)
        assert s["epochs"]["truncated"] is False
