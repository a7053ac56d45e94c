"""Tests for the seeded chaos (random failure schedule) harness."""

import numpy as np
import pytest

from repro.network.chaos import ChaosConfig, chaos_schedule
from repro.network.fabric import Fabric
from repro.network.flow import Coflow, Flow
from repro.network.schedulers import make_scheduler
from repro.network.simulator import CoflowSimulator


def make_fabric(n=6):
    return Fabric(n_ports=n, rate=1.0)


class TestChaosConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(mtbf=0.0, mttr=1.0, horizon=10.0)
        with pytest.raises(ValueError):
            ChaosConfig(mtbf=1.0, mttr=-1.0, horizon=10.0)
        with pytest.raises(ValueError):
            ChaosConfig(mtbf=1.0, mttr=1.0, horizon=0.0)
        with pytest.raises(ValueError):
            ChaosConfig(mtbf=1.0, mttr=1.0, horizon=10.0, min_alive=0)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(mtbf=float("nan")),
            dict(mttr=float("nan")),
            dict(horizon=float("nan")),
            dict(horizon=float("inf")),
        ],
        ids=["mtbf-nan", "mttr-nan", "horizon-nan", "horizon-inf"],
    )
    def test_rejects_values_the_schedule_loop_never_exits_on(self, kw):
        # chaos_schedule stops at ``t >= horizon``, which a NaN time or
        # horizon (or an infinite horizon) never satisfies.
        with pytest.raises(ValueError, match="strictly positive"):
            ChaosConfig(**{**dict(mtbf=1.0, mttr=1.0, horizon=10.0), **kw})

    def test_port_subset_validated(self):
        cfg = ChaosConfig(mtbf=1.0, mttr=1.0, horizon=5.0, ports=(9,))
        with pytest.raises(ValueError, match="out of range"):
            chaos_schedule(cfg, make_fabric(4))


class TestChaosSchedule:
    def test_deterministic_by_seed(self):
        cfg = ChaosConfig(mtbf=2.0, mttr=1.0, horizon=30.0, seed=42)
        a = chaos_schedule(cfg, make_fabric())
        b = chaos_schedule(cfg, make_fabric())
        assert [(e.time, e.port, e.egress) for e in a.events] == [
            (e.time, e.port, e.egress) for e in b.events
        ]
        c = chaos_schedule(
            ChaosConfig(mtbf=2.0, mttr=1.0, horizon=30.0, seed=43),
            make_fabric(),
        )
        assert [(e.time, e.port) for e in a.events] != [
            (e.time, e.port) for e in c.events
        ]

    def test_every_failure_is_paired_with_repair(self):
        fab = make_fabric()
        dyn = chaos_schedule(
            ChaosConfig(mtbf=1.0, mttr=2.0, horizon=40.0, seed=7), fab
        )
        failures = [e for e in dyn.events if e.is_failure]
        repairs = [e for e in dyn.events if not e.is_failure]
        assert failures and len(failures) == len(repairs)
        # Repairs restore the original rates of their port.
        for r in repairs:
            assert r.egress == pytest.approx(float(fab.egress_rates[r.port]))
        # No port fails again while it is still down.
        down_until = {}
        for e in sorted(dyn.events, key=lambda e: e.time):
            if e.is_failure:
                assert down_until.get(e.port, 0.0) <= e.time
            else:
                down_until[e.port] = e.time

    def test_min_alive_is_respected(self):
        fab = make_fabric(3)
        dyn = chaos_schedule(
            ChaosConfig(mtbf=0.2, mttr=50.0, horizon=30.0, seed=1,
                        min_alive=2),
            fab,
        )
        # Replay the schedule counting concurrent downtime.
        down = []
        for e in sorted(dyn.events, key=lambda t: t.time):
            if e.is_failure:
                down = [(p, r) for p, r in down if r > e.time]
                down.append((e.port, np.inf))
                assert 3 - len(down) >= 2
            else:
                down = [
                    (p, e.time if p == e.port else r) for p, r in down
                ]

    def test_min_alive_rejects_tiny_fabric(self):
        with pytest.raises(ValueError, match="min_alive"):
            chaos_schedule(
                ChaosConfig(mtbf=1.0, mttr=1.0, horizon=5.0, min_alive=2),
                make_fabric(2),
            )

    def test_no_failures_after_horizon(self):
        dyn = chaos_schedule(
            ChaosConfig(mtbf=0.5, mttr=0.5, horizon=10.0, seed=3),
            make_fabric(),
        )
        assert all(
            e.time < 10.0 for e in dyn.events if e.is_failure
        )


class TestChaosSimulation:
    @pytest.mark.parametrize("policy", ["retry", "replan"])
    def test_runs_complete_under_chaos(self, policy):
        fab = make_fabric(6)
        rng = np.random.default_rng(0)
        coflows = []
        for j in range(4):
            flows = [
                Flow(s, d, float(rng.uniform(1, 5)))
                for s in range(6)
                for d in range(6)
                if s != d and rng.random() < 0.3
            ]
            if flows:
                coflows.append(
                    Coflow(flows, coflow_id=j, arrival_time=0.5 * j)
                )
        dyn = chaos_schedule(
            ChaosConfig(mtbf=3.0, mttr=2.0, horizon=20.0, seed=11), fab
        )
        res = CoflowSimulator(
            fab, make_scheduler("sebf"), dynamics=dyn, recovery=policy
        ).run(coflows)
        # Chaos repairs every failure, so nothing may be lost forever.
        assert set(res.ccts) == {c.coflow_id for c in coflows}
        assert not res.failed_coflows

    def test_same_seed_same_result(self):
        fab = make_fabric(5)
        cf = Coflow([Flow(s, 4, 6.0) for s in range(4)])
        mk = lambda: chaos_schedule(
            ChaosConfig(mtbf=2.0, mttr=3.0, horizon=15.0, seed=5), fab
        )
        r1 = CoflowSimulator(
            fab, make_scheduler("sebf"), dynamics=mk(), recovery="replan"
        ).run([cf])
        r2 = CoflowSimulator(
            fab, make_scheduler("sebf"), dynamics=mk(), recovery="replan"
        ).run([cf])
        assert r1.ccts[0] == pytest.approx(r2.ccts[0])
        assert [r.kind for r in r1.failures] == [r.kind for r in r2.failures]


class TestChaosScheduleEdgeCases:
    """Regression tests for degenerate configs and fabric states."""

    def test_zero_mtbf_and_zero_mttr_are_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            ChaosConfig(mtbf=0.0, mttr=1.0, horizon=5.0)
        with pytest.raises(ValueError, match="strictly positive"):
            ChaosConfig(mtbf=1.0, mttr=0.0, horizon=5.0)

    def test_dead_port_in_fabric_does_not_crash(self):
        # Regression: a zero-rate port used to reach RateEvent.recovery,
        # which rejects restoring a rate of zero.
        fab = make_fabric(6)
        fab.egress_rates[2] = 0.0
        dyn = chaos_schedule(
            ChaosConfig(mtbf=0.3, mttr=0.5, horizon=30.0, seed=1), fab
        )
        assert len(dyn.events) > 0
        assert all(e.port != 2 for e in dyn.events)

    def test_half_dead_port_is_also_ineligible(self):
        fab = make_fabric(6)
        fab.ingress_rates[4] = 0.0  # sender alive, receiver dead
        dyn = chaos_schedule(
            ChaosConfig(mtbf=0.3, mttr=0.5, horizon=30.0, seed=2), fab
        )
        assert all(e.port != 4 for e in dyn.events)

    def test_all_requested_ports_dead_is_a_clean_error(self):
        fab = make_fabric(4)
        fab.egress_rates[1] = 0.0
        with pytest.raises(ValueError, match="no chaos-eligible ports"):
            chaos_schedule(
                ChaosConfig(mtbf=1.0, mttr=1.0, horizon=5.0, ports=(1,)), fab
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_failure_windows_never_overlap_per_port(self, seed):
        # down_until must prevent a port from failing while already down.
        dyn = chaos_schedule(
            ChaosConfig(mtbf=0.2, mttr=2.0, horizon=20.0, seed=seed),
            make_fabric(4),
        )
        windows: dict[int, list[tuple[float, float]]] = {}
        it = iter(dyn_pairs(dyn))
        for fail_t, repair_t, port in it:
            for lo, hi in windows.get(port, []):
                assert repair_t <= lo or fail_t >= hi, (
                    f"port {port} failed at {fail_t} inside [{lo}, {hi})"
                )
            windows.setdefault(port, []).append((fail_t, repair_t))

    @pytest.mark.parametrize("seed", range(8))
    def test_every_repair_strictly_follows_its_failure(self, seed):
        dyn = chaos_schedule(
            ChaosConfig(mtbf=0.5, mttr=1.0, horizon=15.0, seed=seed),
            make_fabric(5),
        )
        for fail_t, repair_t, _ in dyn_pairs(dyn):
            assert repair_t > fail_t

    def test_repairs_may_land_after_horizon_failures_never(self):
        horizon = 4.0
        dyn = chaos_schedule(
            ChaosConfig(mtbf=0.4, mttr=8.0, horizon=horizon, seed=9),
            make_fabric(6),
        )
        fails = [e for e in dyn.events if e.is_failure]
        repairs = [e for e in dyn.events if not e.is_failure]
        assert fails, "this seed/config should inject failures"
        assert all(e.time < horizon for e in fails)
        assert any(e.time >= horizon for e in repairs), (
            "an 8s MTTR against a 4s horizon should push repairs past it"
        )

    def test_schedule_extending_past_sim_end_is_harmless(self):
        # A schedule whose events outlive the workload must not wedge or
        # crash the simulator; leftover events simply stay pending.
        fab = make_fabric(4)
        cf = Coflow([Flow(0, 1, 0.5)])
        dyn = chaos_schedule(
            ChaosConfig(
                mtbf=5.0, mttr=5.0, horizon=500.0, seed=0, ports=(2, 3)
            ),
            fab,
        )
        assert len(dyn.events) > 4
        res = CoflowSimulator(
            fab, make_scheduler("sebf"), dynamics=dyn, recovery="retry"
        ).run([cf])
        assert not res.failed_coflows
        assert res.makespan < 500.0


def dyn_pairs(dyn):
    """Yield (failure_time, repair_time, port) for a chaos schedule.

    chaos_schedule appends failure and repair back to back, so pairs are
    recovered from the *generation* order, which FabricDynamics preserves
    inside its stable sort.
    """
    by_port: dict[int, list] = {}
    for e in sorted(dyn.events, key=lambda e: (e.time, e.is_failure)):
        by_port.setdefault(e.port, []).append(e)
    for port, events in by_port.items():
        fails = [e.time for e in events if e.is_failure]
        repairs = [e.time for e in events if not e.is_failure]
        assert len(fails) == len(repairs)
        for f, r in zip(sorted(fails), sorted(repairs)):
            yield f, r, port
