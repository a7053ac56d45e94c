"""Integration tests for the event-driven coflow simulator."""

import numpy as np
import pytest

from repro.network.fabric import Fabric
from repro.network.flow import Coflow, Flow
from repro.network.schedulers import make_scheduler
from repro.network.simulator import CoflowSimulator


def simulate(coflows, *, n_ports=3, rate=1.0, scheduler="sebf", **kwargs):
    fab = Fabric(n_ports=n_ports, rate=rate)
    sim = CoflowSimulator(fab, make_scheduler(scheduler), **kwargs)
    return sim.run(coflows)


class TestSingleCoflow:
    def test_cct_equals_closed_form_bottleneck(self):
        cf = Coflow([Flow(0, 1, 3.0), Flow(2, 1, 1.0), Flow(1, 2, 2.0)])
        res = simulate([cf])
        assert res.max_cct == pytest.approx(cf.bottleneck(3, 1.0))

    @pytest.mark.parametrize("scheduler", ["sebf", "fifo", "scf", "ncf"])
    def test_all_madd_schedulers_optimal_for_one_coflow(self, scheduler):
        rng = np.random.default_rng(42)
        vol = rng.integers(1, 9, size=(4, 4)).astype(float)
        np.fill_diagonal(vol, 0.0)
        flows = [
            Flow(i, j, vol[i, j]) for i in range(4) for j in range(4) if vol[i, j]
        ]
        cf = Coflow(flows)
        res = simulate([cf], n_ports=4, scheduler=scheduler)
        assert res.max_cct == pytest.approx(cf.bottleneck(4, 1.0))

    def test_rate_scales_cct(self):
        cf = Coflow([Flow(0, 1, 10.0)])
        res = simulate([cf], rate=2.0)
        assert res.max_cct == pytest.approx(5.0)

    def test_fair_sharing_at_least_optimal(self):
        cf = Coflow([Flow(0, 1, 3.0), Flow(2, 1, 1.0), Flow(1, 2, 2.0)])
        res = simulate([cf], scheduler="fair")
        assert res.max_cct >= cf.bottleneck(3, 1.0) - 1e-9


class TestMultipleCoflows:
    def test_arrival_offsets_respected(self):
        c1 = Coflow([Flow(0, 1, 2.0)], arrival_time=0.0)
        c2 = Coflow([Flow(0, 1, 2.0)], arrival_time=10.0)
        res = simulate([c1, c2])
        assert res.completion_times[0] == pytest.approx(2.0)
        # Second coflow starts at t=10 with a free fabric.
        assert res.completion_times[1] == pytest.approx(12.0)
        assert res.ccts[1] == pytest.approx(2.0)

    def test_sebf_prioritizes_small_coflow(self):
        big = Coflow([Flow(0, 1, 100.0)], arrival_time=0.0, name="big")
        small = Coflow([Flow(0, 2, 1.0)], arrival_time=0.0, name="small")
        res = simulate([big, small])
        # Distinct destinations: both can progress; small finishes first.
        assert res.ccts[1] < res.ccts[0]

    def test_sebf_average_cct_not_worse_than_fifo_on_contention(self):
        # Both coflows fight for egress port 0; SJF-style ordering wins.
        big = Coflow([Flow(0, 1, 100.0)], arrival_time=0.0)
        small = Coflow([Flow(0, 2, 1.0)], arrival_time=0.0)
        sebf = simulate([big, small], scheduler="sebf")
        fifo = simulate([big, small], scheduler="fifo")
        assert sebf.average_cct <= fifo.average_cct + 1e-9

    def test_makespan_is_last_completion(self):
        c1 = Coflow([Flow(0, 1, 2.0)])
        c2 = Coflow([Flow(2, 1, 5.0)])
        res = simulate([c1, c2])
        assert res.makespan == max(res.completion_times.values())

    def test_total_bytes_accounted(self):
        c1 = Coflow([Flow(0, 1, 2.0)])
        c2 = Coflow([Flow(2, 1, 5.0)])
        res = simulate([c1, c2])
        assert res.total_bytes == 7.0


class TestEdgeCases:
    def test_no_coflows(self):
        res = simulate([])
        assert res.makespan == 0.0 and res.ccts == {}

    def test_empty_coflow_completes_at_arrival(self):
        res = simulate([Coflow([], arrival_time=3.0)])
        assert res.completion_times[0] == pytest.approx(3.0)
        assert res.ccts[0] == pytest.approx(0.0)

    def test_port_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="references port"):
            simulate([Coflow([Flow(0, 5, 1.0)])], n_ports=3)

    def test_duplicate_ids_rejected(self):
        c1 = Coflow([Flow(0, 1, 1.0)], coflow_id=7)
        c2 = Coflow([Flow(1, 2, 1.0)], coflow_id=7)
        with pytest.raises(ValueError, match="duplicate"):
            simulate([c1, c2])

    def test_one_scheduling_context_per_allocate_without_reuse(
        self, monkeypatch
    ):
        # Benchmarks count active epochs by wrapping the module-level
        # ``SchedulingContext``; the epoch loop must look it up there on
        # every epoch and build exactly one per active epoch.
        from repro.network import simulator

        built = []

        class CountingContext(simulator.SchedulingContext):
            def __post_init__(self):
                built.append(self.time)
                super().__post_init__()

        allocated = []

        class CountingSEBF(type(make_scheduler("sebf"))):
            def allocate(self, ctx):
                allocated.append(ctx)
                return super().allocate(ctx)

        monkeypatch.setattr(simulator, "SchedulingContext", CountingContext)
        coflows = [
            Coflow([Flow(0, 1, 2.0), Flow(2, 1, 1.0)], arrival_time=0.0),
            Coflow([Flow(1, 2, 1.0)], arrival_time=0.5),
            Coflow([Flow(0, 2, 1.0)], arrival_time=10.0),  # idle gap
        ]
        sim = CoflowSimulator(
            Fabric(n_ports=3, rate=1.0), CountingSEBF(), batch_events=False
        )
        res = sim.run(coflows)
        assert len(res.ccts) == 3
        assert len(built) == len(allocated) > 0
        assert all(type(ctx) is CountingContext for ctx in allocated)

    def test_timeline_recording(self):
        cf = Coflow([Flow(0, 1, 3.0), Flow(1, 2, 2.0)])
        fab = Fabric(n_ports=3, rate=1.0)
        sim = CoflowSimulator(fab, make_scheduler("sebf"), record_timeline=True)
        res = sim.run([cf])
        assert res.epochs
        total = sum(e.duration * e.aggregate_rate for e in res.epochs)
        assert total == pytest.approx(cf.total_volume)

    def test_infeasible_scheduler_caught(self):
        class Greedy(type(make_scheduler("fair"))):
            def allocate(self, ctx):
                return np.full(ctx.n_flows, 10.0)

        fab = Fabric(n_ports=3, rate=1.0)
        sim = CoflowSimulator(fab, Greedy())
        with pytest.raises(ValueError, match="capacity violated"):
            sim.run([Coflow([Flow(0, 1, 5.0)])])

    def test_wrong_rate_shape_caught(self):
        class Short(type(make_scheduler("fair"))):
            def allocate(self, ctx):
                return np.array([1.0, 1.0, 1.0])

        fab = Fabric(n_ports=3, rate=1.0)
        sim = CoflowSimulator(fab, Short())
        with pytest.raises(ValueError, match="expected"):
            sim.run([Coflow([Flow(0, 1, 5.0)])])


class TestSequentialScheduler:
    def test_serializes_to_total_volume(self):
        # Three flows on distinct port pairs: an optimal schedule would
        # finish in max-volume time, the sequential one in the sum.
        cf = Coflow([Flow(0, 1, 3.0), Flow(1, 2, 2.0), Flow(2, 0, 1.0)])
        res = simulate([cf], scheduler="sequential")
        assert res.max_cct == pytest.approx(6.0)
        opt = simulate([cf], scheduler="sebf")
        assert opt.max_cct == pytest.approx(3.0)
