"""End-to-end tests for the open-loop service: run_service and reports."""

import pytest

from repro.obs import StreamingTracer, Tracer, read_jsonl
from repro.service import ArrivalConfig, ServiceConfig, loop, run_service


def small_config(**kwargs):
    arrival = kwargs.pop(
        "arrival", ArrivalConfig(n_ports=12, max_arrivals=80, seed=7)
    )
    defaults = dict(arrival=arrival, load=0.7)
    defaults.update(kwargs)
    return ServiceConfig(**defaults)


# The overload demo's budget; robust across seeds at this stream scale
# (accept-all lands at 3-4x it, the shedding policies well inside it).
SLO_S = 60.0


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(load=0.0)
        with pytest.raises(ValueError):
            small_config(rate=-1.0)
        with pytest.raises(ValueError):
            small_config(slo_p95=0.0)
        with pytest.raises(ValueError):
            small_config(chaos_mtbf=-2.0)
        with pytest.raises(ValueError):
            small_config(chaos_mttr=0.0)

    def test_port_rate_from_load(self):
        cfg = small_config(load=0.5)
        assert cfg.port_rate == pytest.approx(
            2 * small_config(load=1.0).port_rate
        )
        assert small_config(rate=123.0).port_rate == 123.0


class TestHealthyService:
    def test_low_load_completes_everything(self):
        report, result, controller = run_service(
            small_config(slo_p95=SLO_S)
        )
        assert report.arrivals == 80
        assert report.admitted == 80
        assert report.shed == 0
        assert report.completed == 80
        assert report.aborted == 0
        assert report.slo_ok
        assert report.backlog_end_s == 0.0
        assert report.overall["p95"] > 0
        assert result.n_epochs == report.n_epochs
        assert len(controller.cct_samples) == 80

    def test_accounting_identities(self):
        report, _, _ = run_service(small_config())
        assert report.arrivals == report.admitted + report.shed
        assert report.admitted == report.completed + report.aborted

    def test_bit_reproducible(self):
        cfg = small_config(slo_p95=SLO_S)
        a = run_service(cfg)[0].to_dict()
        b = run_service(cfg)[0].to_dict()
        a.pop("wall_s"), b.pop("wall_s")
        assert a == b

    def test_streaming_trace_round_trips(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        tracer = StreamingTracer(path, flush_every=64, header={"seed": 7})
        report, _, _ = run_service(small_config(), instrumentation=tracer)
        tracer.close()
        assert tracer.events == []  # nothing left in RAM
        header, events = read_jsonl(path)
        assert header["seed"] == 7
        admits = [e for e in events if e["kind"] == "admission"]
        assert len(admits) == report.arrivals
        completes = [e for e in events if e["kind"] == "coflow_complete"]
        assert len(completes) == report.completed


class TestFeedbackWiring:
    """Completions reach the controller through the simulator's callbacks;
    the instrumentation slot carries only the caller's own sink."""

    def built_simulators(self, monkeypatch):
        built = []

        class Recording(loop.CoflowSimulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(loop, "CoflowSimulator", Recording)
        return built

    def test_untraced_run_attaches_no_sink(self, monkeypatch):
        built = self.built_simulators(monkeypatch)
        report, _, controller = run_service(small_config())
        assert [sim.instrumentation for sim in built] == [None]
        assert report.completed == report.admitted == 80
        assert len(controller.cct_samples) == 80

    def test_traced_run_attaches_only_the_tracer(self, monkeypatch):
        built = self.built_simulators(monkeypatch)
        tracer = Tracer()
        untraced = run_service(small_config())[2].cct_samples
        _, _, controller = run_service(small_config(), instrumentation=tracer)
        assert built[-1].instrumentation is tracer
        assert controller.cct_samples == untraced


class TestOverload:
    """The graceful-degradation acceptance demo at 1.6x capacity."""

    def overloaded(self, policy):
        return run_service(
            ServiceConfig(
                arrival=ArrivalConfig(max_arrivals=150, seed=7),
                load=1.6,
                policy=policy,
                slo_p95=SLO_S,
            )
        )[0]

    def test_accept_all_collapses(self):
        report = self.overloaded("accept-all")
        assert report.shed == 0
        assert not report.slo_ok
        assert report.reported_p95 > SLO_S

    def test_load_shedding_keeps_the_slo(self):
        report = self.overloaded("load-shedding")
        assert report.shed > 0
        assert report.slo_ok

    def test_slo_guard_keeps_the_slo(self):
        report = self.overloaded("slo-guard")
        assert report.shed > 0
        assert report.slo_ok

    def test_bounded_queue_defers(self):
        report = self.overloaded("bounded-queue")
        assert report.deferrals > 0
        assert report.slo_ok


class TestSoak:
    def test_chaos_with_sustained_arrivals(self):
        report, result, _ = run_service(
            small_config(
                chaos_mtbf=10.0, chaos_mttr=1.0, recovery="retry",
            )
        )
        assert report.port_failures > 0
        # Retried coflows still finish: the stream drains completely.
        assert report.completed + report.aborted == report.admitted
        assert report.completed > 0
        assert result.makespan > 0

    def test_soak_is_deterministic(self):
        cfg = small_config(chaos_mtbf=10.0, recovery="retry")
        a = run_service(cfg)[0].to_dict()
        b = run_service(cfg)[0].to_dict()
        a.pop("wall_s"), b.pop("wall_s")
        assert a == b


class TestPolicyDefaults:
    def test_slo_guard_inherits_budget(self):
        report, _, _ = run_service(
            ServiceConfig(
                arrival=ArrivalConfig(max_arrivals=150, seed=7),
                load=1.6,
                policy="slo-guard",
                slo_p95=20.0,  # tight budget -> guard sheds earlier
            )
        )
        tight_shed = report.shed
        report60, _, _ = run_service(
            ServiceConfig(
                arrival=ArrivalConfig(max_arrivals=150, seed=7),
                load=1.6,
                policy="slo-guard",
                slo_p95=60.0,
            )
        )
        assert tight_shed > report60.shed

    def test_explicit_params_win(self):
        report, _, controller = run_service(
            small_config(
                policy="slo-guard",
                policy_params={"budget_s": 123.0},
                slo_p95=1.0,
            )
        )
        assert controller.policy.budget_s == 123.0
