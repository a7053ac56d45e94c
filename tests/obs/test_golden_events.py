"""Byte-level pin of the event stream that every trace consumer reads.

``ccf stats``, ``ccf gantt --from-trace``, ``ccf report --from-trace`` and
the Perfetto exporter all read the JSONL events a :class:`Tracer`
records.  The fixtures under ``tests/obs/golden/`` hold those events,
header excluded, from four small seeded in-process runs; each test
re-runs its scenario and compares the serialized lines byte for byte,
so a refactor of the emission path cannot change key order, field
types or values unnoticed.  ``wall_s`` (planner wall-clock time) is the
one non-deterministic field and is masked to ``0.0``.

Regenerate the fixtures only for an intended schema change::

    PYTHONPATH=src python tests/obs/test_golden_events.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analytics.dag import DAGExecutor, JobDAG
from repro.core.model import ShuffleModel
from repro.core.resilience import Backoff
from repro.experiments.engine import Cell, SweepSpec, rows_to_table, run_sweep
from repro.network.chaos import ChaosConfig, chaos_schedule
from repro.network.dynamics import FabricDynamics
from repro.network.fabric import Fabric
from repro.network.schedulers import make_scheduler
from repro.network.simulator import CoflowSimulator
from repro.obs import Tracer
from repro.service import ArrivalConfig, ServiceConfig, run_service
from repro.workloads.coflowmix import CoflowMixConfig, generate_coflow_mix

GOLDEN = Path(__file__).parent / "golden"

#: Fields whose values are wall-clock measurements, masked before compare.
_MASKED = ("wall_s",)


def _lines(events) -> str:
    return "".join(
        json.dumps({k: 0.0 if k in _MASKED else v for k, v in e.items()})
        + "\n"
        for e in events
    )


def _chaos_mix(recovery: str):
    coflows = generate_coflow_mix(
        CoflowMixConfig(n_ports=5, n_coflows=6, arrival_rate=2.0, seed=3)
    )
    fabric = Fabric(n_ports=5, rate=128e6)
    dynamics = chaos_schedule(
        ChaosConfig(mtbf=0.5, mttr=0.5, horizon=3.0, seed=1), fabric
    )
    tracer = Tracer()
    result = CoflowSimulator(
        fabric,
        make_scheduler("sebf"),
        dynamics=dynamics,
        recovery=recovery,
        instrumentation=tracer,
        record_timeline=True,
    ).run(coflows)
    return tracer, result


def chaos_retry():
    """A seeded coflow mix under chaos ``retry``, timeline recorded."""
    tracer, result = _chaos_mix("retry")
    epochs = [e for e in tracer.events if e["kind"] == "epoch"]
    assert [
        (r.start, r.duration, r.active_flows, r.aggregate_rate)
        for r in result.epochs
    ] == [(e["t"], e["dur"], e["flows"], e["rate"]) for e in epochs]
    return tracer.events


def chaos_abort():
    """The same mix under chaos ``abort``: emits ``coflow_abort``."""
    tracer, _ = _chaos_mix("abort")
    return tracer.events


def serve_bounded_queue():
    """An overloaded bounded-queue service run: emits ``admission``."""
    tracer = Tracer(sample_ports=False)
    config = ServiceConfig(
        arrival=ArrivalConfig(n_ports=4, users=5, max_arrivals=12, seed=5),
        load=2.0,
        policy="bounded-queue",
        policy_params={"watermark_s": 1.0, "queue_limit": 3},
    )
    _, _, controller = run_service(config, instrumentation=tracer)
    assert {
        e["decision"] for e in tracer.events if e["kind"] == "admission"
    } == {"admit", "defer", "shed"}
    # The controller's CCT samples agree with the completions the
    # simulator reported.
    assert controller.cct_samples == [
        (e["t"] - e["cct"], e["cct"])
        for e in tracer.events
        if e["kind"] == "coflow_complete"
    ]
    return tracer.events


def dag_retry_stage():
    """A DAG under a stage policy: emits ``planner_phase``/``stage_attempt``."""
    rng = np.random.default_rng(1)

    def shuffle():
        return ShuffleModel(
            h=rng.integers(1, 10, size=(4, 6)).astype(float), rate=1.0
        )

    dag = (
        JobDAG("diamond")
        .add("a", shuffle(), dest=np.array([0, 1, 2, 3, 3, 0]))
        .add("b", shuffle(), dest=np.array([0, 1, 2, 0, 1, 2]))
        .add("c", shuffle(), parents=("a", "b"))
        .add("d", shuffle(), parents=("c",))
    )
    dynamics = FabricDynamics.fail(
        time=2.0, ports=[3], fabric=Fabric(n_ports=4, rate=1.0),
        recover_at=6.0,
    )
    tracer = Tracer()
    DAGExecutor().run(
        dag, dynamics=dynamics, stage_policy="retry-stage",
        instrumentation=tracer,
    )
    return tracer.events


SCENARIOS = {
    f.__name__: f
    for f in (chaos_retry, chaos_abort, serve_bounded_queue, dag_retry_stage)
}

#: Event kinds each scenario exists to cover.
COVERS = {
    "chaos_retry": {"failure", "epoch", "coflow_first_byte"},
    "chaos_abort": {"coflow_abort", "failure"},
    "serve_bounded_queue": {"admission"},
    "dag_retry_stage": {"planner_phase", "stage_attempt"},
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_event_stream_matches_golden(name):
    events = SCENARIOS[name]()
    assert COVERS[name] <= {e["kind"] for e in events}
    expected = (GOLDEN / f"{name}.jsonl").read_text()
    assert _lines(events) == expected


def flaky_cell(*, index: int, fail_dir: str) -> list:
    """Fail once per cell, then succeed."""
    marker = Path(fail_dir) / f"cell-{index}"
    if not marker.exists():
        marker.write_text("x")
        raise OSError(f"transient failure in cell {index}")
    return [index]


def test_platform_event_key_order_and_types(tmp_path):
    tracer = Tracer()
    run_sweep(
        SweepSpec(
            name="golden-grid",
            fn=flaky_cell,
            cells=[
                Cell(
                    label="i=0",
                    params={"index": 0, "fail_dir": str(tmp_path)},
                )
            ],
            assemble=rows_to_table("golden grid", ["i"]),
        ),
        retry=Backoff(max_attempts=2, base_delay=0.0, jitter=0.0),
        instrumentation=tracer,
    )
    (event,) = [e for e in tracer.events if e["kind"] == "platform_event"]
    assert list(event) == [
        "kind", "t", "event", "experiment", "cell", "attempt", "detail",
    ]
    assert [type(v) for v in event.values()] == [
        str, float, str, str, str, int, str,
    ]
    assert event["event"] == "retry"
    assert event["experiment"] == "golden-grid"
    assert event["cell"] == "i=0"
    assert event["attempt"] == 1
    assert event["detail"] == "OSError"
    assert tracer.metrics.counter(
        "platform_events_total", "", {"event": "retry"}
    ).value == 1


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    GOLDEN.mkdir(exist_ok=True)
    for name, scenario in SCENARIOS.items():
        (GOLDEN / f"{name}.jsonl").write_text(_lines(scenario()))
