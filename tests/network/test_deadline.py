"""Tests for Varys' deadline mode (admission control + JIT rates)."""

import numpy as np
import pytest

from repro.network.dynamics import FabricDynamics, RateEvent
from repro.network.fabric import Fabric
from repro.network.flow import Coflow, Flow
from repro.network.schedulers.deadline import DeadlineScheduler
from repro.network.simulator import CoflowSimulator


def simulate(coflows, *, n_ports=3, rate=1.0, backfill=True):
    sched = DeadlineScheduler(backfill=backfill)
    sim = CoflowSimulator(Fabric(n_ports=n_ports, rate=rate), sched)
    return sim.run(coflows), sched


class TestCoflowDeadlineField:
    def test_invalid_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline"):
            Coflow([Flow(0, 1, 1.0)], deadline=0.0)

    def test_deadline_survives_id_assignment(self):
        res, sched = simulate([Coflow([Flow(0, 1, 1.0)], deadline=5.0)])
        assert sched.admitted(0) is True


class TestAdmission:
    def test_feasible_deadline_met_exactly_without_backfill(self):
        cf = Coflow([Flow(0, 1, 4.0)], deadline=8.0)
        res, sched = simulate([cf], backfill=False)
        assert sched.admitted(0) is True
        # JIT rate = 0.5; completion exactly at the deadline.
        assert res.ccts[0] == pytest.approx(8.0)

    def test_backfill_beats_deadline(self):
        cf = Coflow([Flow(0, 1, 4.0)], deadline=8.0)
        res, _ = simulate([cf], backfill=True)
        assert res.ccts[0] == pytest.approx(4.0)  # full line rate

    def test_infeasible_deadline_rejected_but_still_served(self):
        cf = Coflow([Flow(0, 1, 10.0)], deadline=5.0)  # needs rate 2 > 1
        res, sched = simulate([cf])
        assert sched.admitted(0) is False
        # Best-effort: finishes at line rate, missing the deadline.
        assert res.ccts[0] == pytest.approx(10.0)

    def test_admission_accounts_for_existing_guarantees(self):
        # Coflow 0 reserves rate 0.8 on port 0->1; coflow 1 needs 0.5 on
        # the same ports within its deadline -> must be rejected.
        c0 = Coflow([Flow(0, 1, 8.0)], deadline=10.0)
        c1 = Coflow([Flow(0, 2, 5.0)], arrival_time=0.0, deadline=10.0)
        c2 = Coflow([Flow(0, 1, 5.0)], arrival_time=0.0, deadline=10.0)
        res, sched = simulate([c0, c1, c2], backfill=False)
        assert sched.admitted(0) is True
        # c1 uses a different ingress but the same egress: 0.8 + 0.5 > 1.
        assert sched.admitted(1) is False
        assert sched.admitted(2) is False

    def test_deadlineless_coflows_are_best_effort(self):
        guaranteed = Coflow([Flow(0, 1, 5.0)], deadline=10.0)
        besteffort = Coflow([Flow(0, 2, 5.0)])
        res, sched = simulate([guaranteed, besteffort])
        assert sched.admitted(0) is True
        assert sched.admitted(1) is None
        # Best-effort still completes (backfill gives it the leftover).
        assert res.ccts[1] <= 10.0 + 1e-9

    def test_guaranteed_coflow_immune_to_later_load(self):
        g = Coflow([Flow(0, 1, 6.0)], deadline=10.0)
        noise = [
            Coflow([Flow(0, 1, 50.0)], arrival_time=1.0),
            Coflow([Flow(2, 1, 50.0)], arrival_time=1.0),
        ]
        res, sched = simulate([g, *noise], backfill=False)
        assert res.completion_times[0] <= 10.0 + 1e-6


class TestCapacityLoss:
    """A port that fails or slows under an admitted coflow voids its
    guarantee; the coflow keeps the largest share that fits."""

    def test_slowdown_scales_the_guarantee_to_fit(self):
        # JIT rate 0.5 until port 0's egress drops to 0.25 at t = 2; the
        # remaining 3 bytes then drain at 0.25, missing the deadline.
        cf = Coflow([Flow(0, 1, 4.0)], deadline=8.0)
        sched = DeadlineScheduler(backfill=False)
        sim = CoflowSimulator(
            Fabric(n_ports=3, rate=1.0), sched,
            dynamics=FabricDynamics([RateEvent(2.0, 0, egress=0.25)]),
        )
        res = sim.run([cf])
        assert sched.admitted(0) is True
        assert res.ccts[0] == pytest.approx(14.0)

    @pytest.mark.parametrize("backfill", [True, False])
    def test_failure_and_retry_under_an_admitted_coflow(self, backfill):
        # Port 0 fails at t = 1 and returns at t = 2; the retried flow of
        # the admitted coflow then needs rate 2 on a unit port.
        coflows = [
            Coflow([Flow(0, 1, 2.0)], deadline=3.0),
            Coflow([Flow(0, 1, 1.0)]),
        ]
        sched = DeadlineScheduler(backfill=backfill)
        sim = CoflowSimulator(
            Fabric(n_ports=3, rate=1.0), sched,
            dynamics=FabricDynamics([
                RateEvent.failure(1.0, 0),
                RateEvent.recovery(2.0, 0, egress=1.0, ingress=1.0),
            ]),
            recovery="retry",
        )
        res = sim.run(coflows)
        assert sched.admitted(0) is True
        assert sorted(res.ccts) == [0, 1]


class TestReset:
    def test_reset_clears_admissions(self):
        sched = DeadlineScheduler()
        sim = CoflowSimulator(Fabric(n_ports=2, rate=1.0), sched)
        sim.run([Coflow([Flow(0, 1, 1.0)], deadline=2.0)])
        assert sched.admitted(0) is True
        sim.run([Coflow([Flow(0, 1, 10.0)], deadline=1.0)])
        assert sched.admitted(0) is False  # fresh verdict after reset


class TestIO:
    def test_deadline_round_trips_through_json(self, tmp_path):
        from repro.network.io import load_coflows, save_coflows

        cf = Coflow([Flow(0, 1, 2.0)], deadline=7.5)
        path = tmp_path / "c.json"
        save_coflows([cf], path)
        back = load_coflows(path)[0]
        assert back.deadline == 7.5

    def test_missing_deadline_stays_none(self, tmp_path):
        from repro.network.io import load_coflows, save_coflows

        path = tmp_path / "c.json"
        save_coflows([Coflow([Flow(0, 1, 2.0)])], path)
        assert load_coflows(path)[0].deadline is None
