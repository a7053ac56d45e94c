"""The guaranteed weighted-CCT schedulers (`wcct5`, `lpcct`)."""

import numpy as np
import pytest

from repro.network.events import CoflowProgress, SchedulingContext
from repro.network.fabric import Fabric
from repro.network.flow import Coflow, Flow
from repro.network.schedulers import (
    LPOrderingScheduler,
    WeightedApproxScheduler,
    make_scheduler,
)
from repro.network.simulator import CoflowSimulator

APPROX = ("wcct5", "lpcct")


def _identical_pair(w0, w1):
    """Two byte-identical coflows differing only in weight."""
    return [
        Coflow([Flow(0, 1, 10.0)], 0.0, coflow_id=0, weight=w0),
        Coflow([Flow(0, 1, 10.0)], 0.0, coflow_id=1, weight=w1),
    ]


class TestRegistry:
    def test_construction_by_name(self):
        assert isinstance(make_scheduler("wcct5"), WeightedApproxScheduler)
        assert isinstance(make_scheduler("lpcct"), LPOrderingScheduler)

    def test_names(self):
        assert WeightedApproxScheduler.name == "wcct5"
        assert LPOrderingScheduler.name == "lpcct"


class TestWeightAwareness:
    @pytest.mark.parametrize("name", APPROX)
    def test_heavy_coflow_finishes_first(self, name):
        # Two identical coflows sharing one port pair: weighted-CCT
        # scheduling must serve the weight-10 one to completion first.
        coflows = _identical_pair(1.0, 10.0)
        res = CoflowSimulator(
            Fabric(n_ports=2, rate=1.0), make_scheduler(name)
        ).run(coflows)
        assert res.completion_times[1] < res.completion_times[0]
        # Serial service of equal 10-byte flows at rate 1.
        assert res.completion_times[1] == pytest.approx(10.0)
        assert res.completion_times[0] == pytest.approx(20.0)

    @pytest.mark.parametrize("name", APPROX)
    def test_single_coflow_hits_isolation_bottleneck(self, name):
        # Alone on the fabric, any work-conserving order must finish at
        # Gamma = max port load / rate.
        cf = Coflow(
            [Flow(0, 1, 6.0), Flow(0, 2, 4.0), Flow(2, 1, 2.0)],
            0.0,
            coflow_id=0,
        )
        res = CoflowSimulator(
            Fabric(n_ports=3, rate=1.0), make_scheduler(name)
        ).run([cf])
        assert res.ccts[0] == pytest.approx(10.0)  # port 0 egress = 6+4


class TestDeterminismAndReuse:
    def _workload(self, seed):
        rng = np.random.default_rng(seed)
        coflows = []
        for cid in range(6):
            flows = []
            for _ in range(int(rng.integers(1, 4))):
                s, d = rng.choice(5, size=2, replace=False)
                flows.append(Flow(int(s), int(d), float(rng.uniform(1, 9))))
            coflows.append(
                Coflow(
                    flows,
                    float(rng.uniform(0, 3)),
                    coflow_id=cid,
                    weight=float(rng.integers(1, 5)),
                )
            )
        return coflows

    @pytest.mark.parametrize("name", APPROX)
    def test_scheduler_object_is_reusable_across_runs(self, name):
        # reset() must clear the cached permutation: running instance A,
        # then B, then A again reproduces A's result bit-for-bit.
        sched = make_scheduler(name)
        fabric = Fabric(n_ports=5, rate=1.0)

        def run(seed):
            return CoflowSimulator(fabric, sched).run(self._workload(seed))

        first = run(0)
        run(1)
        again = run(0)
        assert first.ccts == again.ccts
        assert first.completion_times == again.completion_times
        assert first.n_epochs == again.n_epochs

    def test_lpcct_survives_dead_ports(self):
        # A port at rate zero must not crash the LP ordering (fabric
        # dynamics can zero rates mid-run); coflows pinned on the dead
        # port are simply ranked last.
        fabric = Fabric(n_ports=3, rate=1.0)
        fabric.egress_rates[2] = 0.0
        sched = make_scheduler("lpcct")
        cf = Coflow([Flow(0, 1, 5.0)], 0.0, coflow_id=0)
        res = CoflowSimulator(fabric, sched).run([cf])
        assert res.ccts[0] == pytest.approx(5.0)


class TestLoneCoflowShortcut:
    """A lone active coflow skips the ordering pass, yet the permutation
    cache must still notice the active set changing through it."""

    @staticmethod
    def _ctx(volumes):
        """One flow 0 -> 1 per coflow on a unit-rate 2-port fabric."""
        cids = sorted(volumes)
        return SchedulingContext(
            time=0.0,
            fabric=Fabric(n_ports=2, rate=1.0),
            srcs=np.zeros(len(cids), dtype=np.int64),
            dsts=np.ones(len(cids), dtype=np.int64),
            remaining=np.array([volumes[c] for c in cids]),
            coflow_ids=np.array(cids, dtype=np.int64),
            progress={
                c: CoflowProgress(
                    coflow_id=c, arrival_time=0.0,
                    total_volume=volumes[c], width=1,
                )
                for c in cids
            },
        )

    @pytest.mark.parametrize("name", APPROX)
    def test_set_change_through_lone_coflow_recomputes_ranks(self, name):
        # Both coflows share port 0 -> 1, so the first in the order takes
        # the whole port and the other gets nothing.
        small_first = self._ctx({1: 1.0, 2: 10.0})
        swapped = self._ctx({1: 10.0, 2: 1.0})
        sched = make_scheduler(name)
        assert sched.allocate(small_first).tolist() == [1.0, 0.0]
        assert sched.allocate(self._ctx({2: 9.0})).tolist() == [1.0]
        # {1, 2} -> {2} -> {1, 2}: the ranks come from today's volumes.
        assert sched.allocate(swapped).tolist() == [0.0, 1.0]
        # Without the set change in between, the cached order stands.
        cached = make_scheduler(name)
        cached.allocate(small_first)
        assert cached.allocate(swapped).tolist() == [1.0, 0.0]
