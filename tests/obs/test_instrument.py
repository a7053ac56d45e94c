"""Tracer lifecycle semantics + simulator wiring of the event stream."""

from repro.network import Coflow, CoflowSimulator, Fabric, Flow
from repro.network.dynamics import FabricDynamics, RateEvent
from repro.network.schedulers import make_scheduler
from repro.obs import Instrumentation, MultiInstrumentation, Tracer


def _coflows():
    return [
        Coflow([Flow(0, 1, 4.0), Flow(1, 2, 2.0)], 0.0, coflow_id=0,
               name="alpha"),
        Coflow([Flow(2, 0, 3.0)], 1.0, coflow_id=1),
    ]


def _run(tracer, coflows=None, **kwargs):
    sim = CoflowSimulator(
        Fabric(n_ports=3, rate=1.0),
        make_scheduler("sebf"),
        instrumentation=tracer,
        **kwargs,
    )
    return sim.run(coflows if coflows is not None else _coflows())


class TestNoOpBase:
    def test_base_is_disabled(self):
        obs = Instrumentation()
        assert not obs.enabled
        assert not obs.wants_flow_events
        assert not obs.wants_port_samples

    def test_all_hooks_are_noops(self):
        obs = Instrumentation()
        obs.emit("run_start", 0.0, coflows=1, total_bytes=1.0)
        obs.emit(
            "coflow_submit", 0.0, cid=0, arrival=0.0, volume=1.0, width=1,
            name="", weight=1.0,
        )
        obs.emit("coflow_admit", 0.0, cid=0)
        obs.emit("coflow_first_byte", 0.0, cid=0)
        obs.emit("coflow_complete", 1.0, cid=0, cct=1.0)
        obs.emit("coflow_abort", 1.0, cid=0)
        obs.emit("epoch", 0.0, dur=1.0, flows=1, rate=1.0)
        obs.emit("planner_phase", 0.0, stage="s", wall_s=0.1, strategy="")
        obs.emit(
            "stage_attempt", 0.0, dur=1.0, stage="s", attempt=1,
            status="completed", cid=-1,
        )
        obs.close()

    def test_disabled_sink_not_stored(self):
        sim = CoflowSimulator(
            Fabric(n_ports=2, rate=1.0),
            make_scheduler("fair"),
            instrumentation=Instrumentation(),
        )
        assert sim.instrumentation is None


class TestTracerLifecycle:
    def test_event_ordering(self):
        tracer = Tracer()
        _run(tracer)
        kinds = [e["kind"] for e in tracer.events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        # submit precedes admit precedes first_byte precedes complete
        for cid in (0, 1):
            order = [
                next(
                    i for i, e in enumerate(tracer.events)
                    if e["kind"] == k and e.get("cid") == cid
                )
                for k in ("coflow_submit", "coflow_admit",
                          "coflow_first_byte", "coflow_complete")
            ]
            assert order == sorted(order)

    def test_submit_carries_identity(self):
        tracer = Tracer()
        _run(tracer)
        sub = {
            e["cid"]: e for e in tracer.events if e["kind"] == "coflow_submit"
        }
        assert sub[0]["name"] == "alpha"
        assert sub[0]["volume"] == 6.0
        assert sub[0]["width"] == 2
        assert sub[1]["arrival"] == 1.0

    def test_first_byte_emitted_once(self):
        tracer = Tracer()
        _run(tracer)
        fb = [e for e in tracer.events if e["kind"] == "coflow_first_byte"]
        assert sorted(e["cid"] for e in fb) == [0, 1]

    def test_cct_matches_result(self):
        tracer = Tracer()
        res = _run(tracer)
        done = {
            e["cid"]: e["cct"]
            for e in tracer.events
            if e["kind"] == "coflow_complete"
        }
        assert done == res.ccts

    def test_epoch_samples_have_port_busy(self):
        tracer = Tracer(sample_ports=True)
        _run(tracer)
        epochs = [e for e in tracer.events if e["kind"] == "epoch"]
        assert epochs
        for e in epochs:
            assert len(e["port_busy_send"]) == 3
            assert len(e["port_busy_recv"]) == 3
            assert e["dur"] >= 0.0
            assert "residual" in e and "queue" in e and "coflows" in e

    def test_sample_ports_off(self):
        tracer = Tracer(sample_ports=False)
        _run(tracer)
        epochs = [e for e in tracer.events if e["kind"] == "epoch"]
        assert epochs
        assert all("port_busy_send" not in e for e in epochs)

    def test_metrics_updated(self):
        tracer = Tracer()
        res = _run(tracer)
        m = tracer.metrics
        assert m.counter("coflows_submitted_total").value == 2
        assert m.counter("coflows_completed_total").value == 2
        # n_epochs counts every loop iteration; samples cover only the
        # flow-advancing ones (idle arrival waits emit nothing).
        sampled = sum(1 for e in tracer.events if e["kind"] == "epoch")
        assert m.counter("epochs_total").value == sampled <= res.n_epochs
        assert m.histogram("cct_seconds").n == 2
        assert m.gauge("sim_time_seconds").value == res.makespan

    def test_failure_and_abort_events(self):
        tracer = Tracer()
        dynamics = FabricDynamics([RateEvent.failure(0.5, 0)])
        res = _run(tracer, dynamics=dynamics, recovery="abort")
        kinds = {e["kind"] for e in tracer.events}
        assert "failure" in kinds and "coflow_abort" in kinds
        aborted = {
            e["cid"] for e in tracer.events if e["kind"] == "coflow_abort"
        }
        assert aborted == set(res.failed_coflows)
        assert tracer.metrics.counter("coflows_aborted_total").value == len(
            aborted
        )
        assert tracer.metrics.counter("port_failures_total").value >= 1

    def test_header_stored(self):
        tracer = Tracer(header={"seed": 7})
        assert tracer.header == {"seed": 7}


class TestMultiInstrumentation:
    def test_fans_out_and_ors_flags(self):
        a, b = Tracer(sample_ports=False), Tracer(sample_ports=True)
        multi = MultiInstrumentation([a, b, None])
        assert multi.enabled
        assert multi.wants_flow_events
        assert multi.wants_port_samples
        _run(multi)
        assert [e["kind"] for e in a.events] == [e["kind"] for e in b.events]

    def test_all_disabled_children(self):
        multi = MultiInstrumentation([Instrumentation()])
        assert not multi.enabled


class TestTimelineUnification:
    def test_timeline_and_tracer_coexist(self):
        tracer = Tracer()
        res = _run(tracer, record_timeline=True)
        epochs = [e for e in tracer.events if e["kind"] == "epoch"]
        assert len(res.epochs) == len(epochs) <= res.n_epochs
        for rec, ev in zip(res.epochs, epochs):
            assert rec.start == ev["t"]
            assert rec.duration == ev["dur"]
            assert rec.active_flows == ev["flows"]
            assert rec.aggregate_rate == ev["rate"]

    def test_timeline_without_tracer(self):
        sim = CoflowSimulator(
            Fabric(n_ports=3, rate=1.0),
            make_scheduler("sebf"),
            record_timeline=True,
        )
        res = sim.run(_coflows())
        assert res.epochs and len(res.epochs) <= res.n_epochs

    def test_no_timeline_by_default(self):
        res = _run(Tracer())
        assert res.epochs == [] and res.n_epochs > 0
