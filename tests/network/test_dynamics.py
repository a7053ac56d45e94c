"""Tests for fabric dynamics (mid-simulation rate changes and failures)."""

import numpy as np
import pytest

from repro.network.dynamics import FabricDynamics, RateEvent
from repro.network.fabric import Fabric
from repro.network.flow import Coflow, Flow
from repro.network.schedulers import make_scheduler
from repro.network.simulator import CoflowSimulator


class TestRateEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            RateEvent(time=-1, port=0, egress=1.0)
        with pytest.raises(ValueError):
            RateEvent(time=0, port=-1, egress=1.0)
        with pytest.raises(ValueError):
            RateEvent(time=0, port=0, egress=-1.0)
        with pytest.raises(ValueError):
            RateEvent(time=0, port=0)  # no direction changed

    @pytest.mark.parametrize(
        "kw",
        [
            dict(time=float("nan"), egress=1.0),
            dict(time=0.0, egress=float("nan")),
            dict(time=0.0, ingress=float("nan")),
        ],
        ids=["time", "egress", "ingress"],
    )
    def test_rejects_nan(self, kw):
        with pytest.raises(ValueError, match="non-negative"):
            RateEvent(port=0, **kw)

    def test_recovery_rejects_nan_rates(self):
        with pytest.raises(ValueError, match="strictly positive"):
            RateEvent.recovery(1.0, 0, egress=float("nan"), ingress=1.0)

    def test_zero_rate_is_a_failure_event(self):
        e = RateEvent(time=0, port=0, egress=0.0)
        assert e.is_failure
        assert not RateEvent(time=0, port=0, egress=1.0).is_failure

    def test_failure_and_recovery_helpers(self):
        f = RateEvent.failure(2.0, 1)
        assert f.egress == 0.0 and f.ingress == 0.0 and f.is_failure
        r = RateEvent.recovery(4.0, 1, egress=3.0, ingress=5.0)
        assert (r.egress, r.ingress) == (3.0, 5.0) and not r.is_failure
        with pytest.raises(ValueError):
            RateEvent.recovery(4.0, 1, egress=0.0, ingress=1.0)


class TestFabricDynamics:
    def test_events_sorted(self):
        dyn = FabricDynamics(
            [RateEvent(5.0, 0, egress=1.0), RateEvent(1.0, 0, egress=2.0)]
        )
        assert [e.time for e in dyn.events] == [1.0, 5.0]

    def test_apply_due_is_not_destructive(self):
        # Regression: apply_due used to consume the event list, silently
        # making a dynamics object single-use.
        fab = Fabric(n_ports=2, rate=4.0)
        dyn = FabricDynamics([RateEvent(1.0, 0, egress=2.0)])
        assert not dyn.apply_due(fab, 0.5)
        assert dyn.apply_due(fab, 1.0)
        assert fab.egress_rates[0] == 2.0
        assert fab.ingress_rates[0] == 4.0  # unchanged direction
        assert len(dyn) == 1  # the schedule survives
        assert dyn.pending == 0
        assert not dyn.apply_due(fab, 2.0)  # applied exactly once

    def test_rewind_allows_replay(self):
        dyn = FabricDynamics([RateEvent(1.0, 0, egress=2.0)])
        fab1 = Fabric(n_ports=2, rate=4.0)
        fab2 = Fabric(n_ports=2, rate=4.0)
        assert dyn.apply_due(fab1, 1.0)
        dyn.rewind()
        assert dyn.pending == 1
        assert dyn.apply_due(fab2, 1.0)
        assert fab2.egress_rates[0] == 2.0

    def test_same_schedule_drives_multiple_simulations(self):
        # Regression for the destructive apply_due: one FabricDynamics
        # object passed to a simulator must work for every run.
        cf = Coflow([Flow(0, 1, 10.0)])
        dyn = FabricDynamics([RateEvent(5.0, 0, egress=0.25)])
        fab = Fabric(n_ports=2, rate=1.0)
        sim_a = CoflowSimulator(fab, make_scheduler("sebf"), dynamics=dyn)
        sim_b = CoflowSimulator(fab, make_scheduler("sebf"), dynamics=dyn)
        a1 = sim_a.run([cf])
        b1 = sim_b.run([cf])
        a2 = sim_a.run([cf])
        assert a1.ccts[0] == pytest.approx(25.0)
        assert b1.ccts[0] == pytest.approx(a1.ccts[0])
        assert a2.ccts[0] == pytest.approx(a1.ccts[0])
        assert len(dyn) == 1  # caller's schedule untouched

    def test_event_at_time_zero(self):
        fab = Fabric(n_ports=2, rate=4.0)
        dyn = FabricDynamics([RateEvent(0.0, 1, ingress=1.0)])
        assert dyn.apply_due(fab, 0.0)
        assert fab.ingress_rates[1] == 1.0

    def test_simultaneous_events_on_one_port_apply_in_order(self):
        # Stable sort: same-time events keep list order; the last wins.
        fab = Fabric(n_ports=2, rate=4.0)
        dyn = FabricDynamics(
            [RateEvent(1.0, 0, egress=2.0), RateEvent(1.0, 0, egress=3.0)]
        )
        assert dyn.apply_due(fab, 1.0)
        assert fab.egress_rates[0] == 3.0
        assert dyn.pending == 0

    def test_next_event_time(self):
        dyn = FabricDynamics([RateEvent(2.0, 0, egress=1.0)])
        assert dyn.next_event_time(0.0) == 2.0
        assert dyn.next_event_time(2.0) is None

    def test_validate_against(self):
        dyn = FabricDynamics([RateEvent(0.0, 5, egress=1.0)])
        with pytest.raises(ValueError, match="port 5"):
            dyn.validate_against(Fabric(n_ports=2))

    def test_validate_against_accepts_in_range(self):
        dyn = FabricDynamics([RateEvent(0.0, 1, egress=1.0)])
        dyn.validate_against(Fabric(n_ports=2))  # no raise

    def test_degrade_helper(self):
        fab = Fabric(n_ports=3, rate=8.0)
        dyn = FabricDynamics.degrade(
            time=1.0, ports=[0, 2], factor=0.25, fabric=fab, recover_at=3.0
        )
        assert len(dyn) == 4
        with pytest.raises(ValueError):
            FabricDynamics.degrade(time=0, ports=[0], factor=0.0, fabric=fab)

    def test_degrade_recover_restores_exact_original_rates(self):
        fab = Fabric(
            n_ports=3,
            rate=8.0,
            egress_rates=np.array([8.0, 6.0, 4.0]),
            ingress_rates=np.array([7.0, 5.0, 3.0]),
        )
        dyn = FabricDynamics.degrade(
            time=1.0, ports=[1, 2], factor=0.5, fabric=fab, recover_at=3.0
        )
        target = Fabric(
            n_ports=3,
            rate=8.0,
            egress_rates=fab.egress_rates,
            ingress_rates=fab.ingress_rates,
        )
        dyn.apply_due(target, 1.0)
        assert target.egress_rates[1] == 3.0 and target.ingress_rates[2] == 1.5
        dyn.apply_due(target, 3.0)
        np.testing.assert_allclose(target.egress_rates, fab.egress_rates)
        np.testing.assert_allclose(target.ingress_rates, fab.ingress_rates)

    def test_fail_helper(self):
        fab = Fabric(n_ports=3, rate=8.0)
        dyn = FabricDynamics.fail(
            time=1.0, ports=[0, 1], fabric=fab, recover_at=2.0
        )
        assert len(dyn) == 4 and dyn.has_failures
        dyn.apply_due(fab, 1.0)
        assert fab.egress_rates[0] == 0.0 and fab.ingress_rates[1] == 0.0
        dyn.apply_due(fab, 2.0)
        assert fab.egress_rates[0] == 8.0 and fab.ingress_rates[1] == 8.0
        with pytest.raises(ValueError, match="recover_at"):
            FabricDynamics.fail(time=2.0, ports=[0], fabric=fab, recover_at=2.0)

    def test_fail_direction_ingress_only(self):
        fab = Fabric(n_ports=3, rate=8.0)
        dyn = FabricDynamics.fail(
            time=1.0, ports=[1], fabric=fab, recover_at=2.0,
            direction="ingress",
        )
        assert dyn.has_failures
        dyn.apply_due(fab, 1.0)
        assert fab.ingress_rates[1] == 0.0
        assert fab.egress_rates[1] == 8.0  # sender side stays up
        dyn.apply_due(fab, 2.0)
        assert fab.ingress_rates[1] == 8.0
        with pytest.raises(ValueError, match="direction"):
            FabricDynamics.fail(
                time=1.0, ports=[1], fabric=fab, direction="sideways"
            )

    def test_has_failures_false_for_pure_degradation(self):
        fab = Fabric(n_ports=2, rate=4.0)
        dyn = FabricDynamics.degrade(time=1.0, ports=[0], factor=0.5, fabric=fab)
        assert not dyn.has_failures


class TestSimulatorIntegration:
    def run(self, coflows, dynamics, rate=1.0, n_ports=3, scheduler="sebf"):
        fab = Fabric(n_ports=n_ports, rate=rate)
        sim = CoflowSimulator(
            fab, make_scheduler(scheduler), dynamics=dynamics
        )
        return sim.run(coflows), fab

    def test_degradation_slows_completion(self):
        # 10 bytes at rate 1; at t=5 the egress drops to 0.25:
        # 5 bytes drained, remaining 5 take 20s -> finishes at 25.
        cf = Coflow([Flow(0, 1, 10.0)])
        dyn = FabricDynamics([RateEvent(5.0, 0, egress=0.25)])
        res, fab = self.run([cf], dyn)
        assert res.ccts[0] == pytest.approx(25.0)
        # The caller's fabric is untouched.
        assert fab.egress_rates[0] == 1.0

    def test_recovery_speeds_back_up(self):
        cf = Coflow([Flow(0, 1, 10.0)])
        dyn = FabricDynamics(
            [
                RateEvent(2.0, 0, egress=0.5),
                RateEvent(4.0, 0, egress=1.0),
            ]
        )
        res, _ = self.run([cf], dyn)
        # 2s @1 + 2s @0.5 + 7s @1 = 10 bytes -> done at t=11.
        assert res.ccts[0] == pytest.approx(11.0)

    def test_ingress_event(self):
        cf = Coflow([Flow(0, 1, 4.0)])
        dyn = FabricDynamics([RateEvent(0.0, 1, ingress=0.5)])
        res, _ = self.run([cf], dyn)
        assert res.ccts[0] == pytest.approx(8.0)

    def test_unaffected_flows_unchanged(self):
        a = Coflow([Flow(0, 1, 4.0)], coflow_id=0)
        b = Coflow([Flow(2, 1, 4.0)], coflow_id=1)
        dyn = FabricDynamics([RateEvent(1.0, 2, egress=0.5)])
        res, _ = self.run([a, b], dyn)
        # Port 1 ingress is shared; both still finish (b slower).
        assert res.ccts[0] <= res.ccts[1]

    def test_repeatable_runs(self):
        cf = Coflow([Flow(0, 1, 10.0)])
        dyn = FabricDynamics([RateEvent(5.0, 0, egress=0.25)])
        fab = Fabric(n_ports=2, rate=1.0)
        sim = CoflowSimulator(fab, make_scheduler("sebf"), dynamics=dyn)
        r1 = sim.run([cf])
        r2 = sim.run([cf])
        assert r1.ccts[0] == pytest.approx(r2.ccts[0])

    def test_invalid_port_rejected_at_construction(self):
        dyn = FabricDynamics([RateEvent(0.0, 9, egress=1.0)])
        with pytest.raises(ValueError, match="port 9"):
            CoflowSimulator(
                Fabric(n_ports=2), make_scheduler("sebf"), dynamics=dyn
            )

    def test_failure_events_require_recovery_policy(self):
        dyn = FabricDynamics([RateEvent.failure(1.0, 0)])
        with pytest.raises(ValueError, match="recovery"):
            CoflowSimulator(
                Fabric(n_ports=2), make_scheduler("sebf"), dynamics=dyn
            )
