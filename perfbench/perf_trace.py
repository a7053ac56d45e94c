"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps the public entry points of each layer (see
:data:`ENTRY_POINTS`) for the duration of one traced op and restores the
originals afterwards, so untraced ops run the program exactly as shipped.
Each wrapped call is one span; a layer's *self time* is its spans'
duration minus the part covered by wrapped calls nested inside them, so
the self times of all layers add up to at most the op's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from typing import Any, Callable, Iterator

import repro.core.framework as framework
import repro.network.analysis as analysis
import repro.network.bounds as bounds
import repro.network.simulator as simulator
from repro.core.model import ShuffleModel
from repro.core.skew import PartialDuplication
from repro.network.schedulers.base import CoflowScheduler
from repro.service.admission import AdmissionController
from repro.workloads.analytic import AnalyticJoinWorkload

#: Unit of every per-layer metric :meth:`Tracer.per_layer` reports.
UNITS = {
    "core.skew.calls": "count",
    "core.skew.self_s": "s",
    "core.strategies.self_s": "s",
    "core.heuristic.self_s": "s",
    "core.heuristic.us_per_partition": "us",
    "core.model.evaluate_calls": "count",
    "core.model.evaluate_s": "s",
    "core.model.to_coflow_s": "s",
    "core.model.flows_built": "count",
    "workloads.self_s": "s",
    "network.simulator.self_s": "s",
    "network.simulator.epochs": "count",
    "network.simulator.us_per_epoch": "us",
    "network.simulator.rate_reuse_frac": "ratio",
    "network.schedulers.allocate_calls": "count",
    "network.schedulers.allocate_s": "s",
    "network.schedulers.us_per_allocate": "us",
    "service.admission.calls": "count",
    "service.admission.self_s": "s",
    "service.admission.deferrals": "count",
    "service.admission.shed": "count",
    "network.analysis.self_s": "s",
    "network.bounds.self_s": "s",
    "coverage_frac": "ratio",
    "obs.trace_overhead_frac": "ratio",
}


def _count_partitions(tracer: "Tracer", args: tuple, out: Any) -> None:
    tracer.counts["partitions"] += args[0].p


def _count_flows(tracer: "Tracer", args: tuple, out: Any) -> None:
    tracer.counts["flows_built"] += len(out.flows)


def _count_epochs(tracer: "Tracer", args: tuple, out: Any) -> None:
    tracer.counts["epochs"] += out.n_epochs


def _count_active_epoch(tracer: "Tracer", args: tuple, out: Any) -> None:
    tracer.counts["active_epochs"] += 1


def _scheduler_classes() -> list[type]:
    """Every scheduler class that defines its own ``allocate``."""
    found, todo = [], [CoflowScheduler]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not CoflowScheduler and "allocate" in vars(cls):
            found.append(cls)
    return found


#: ``(owner, attribute, layer, counter)`` for every wrapped entry point.
#: The planner strategies are wrapped where ``CCF.assign`` looks them up.
#: The simulator builds one ``SchedulingContext`` per epoch with active
#: flows, whether it then calls ``allocate`` or reuses the last rates;
#: idle fast-forward epochs and the final one build none.
ENTRY_POINTS: tuple[tuple[Any, str, str, Callable | None], ...] = (
    (AnalyticJoinWorkload, "shuffle_model", "workloads", None),
    (PartialDuplication, "apply", "core.skew", None),
    (framework, "hash_assignment", "core.strategies", None),
    (framework, "mini_assignment", "core.strategies", None),
    (framework, "ccf_heuristic", "core.heuristic", _count_partitions),
    (ShuffleModel, "evaluate", "core.model.evaluate", None),
    (ShuffleModel, "to_coflow", "core.model.to_coflow", _count_flows),
    (simulator.CoflowSimulator, "run", "network.simulator", _count_epochs),
    (simulator, "SchedulingContext", "network.simulator", _count_active_epoch),
    *(
        (cls, "allocate", "network.schedulers", None)
        for cls in _scheduler_classes()
    ),
    (AdmissionController, "take", "service.admission", None),
    (AdmissionController, "next_time", "service.admission", None),
    (analysis, "analyze", "network.analysis", None),
    (bounds, "weighted_cct_lower_bound", "network.bounds", None),
)


class Tracer:
    """Accumulates span self time, span counts and layer counters."""

    def __init__(self) -> None:
        self.self_s: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._child_s: list[float] = []

    def _wrap(self, fn: Callable, layer: str, counter: Callable | None) -> Callable:
        stack = self._child_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.self_s[layer] += dt - stack.pop()
                self.total_s[layer] += dt
                self.calls[layer] += 1
                if stack:
                    stack[-1] += dt
            if counter is not None:
                counter(self, args, out)
            return out

        return span

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every entry point for the duration of the block."""
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in ENTRY_POINTS]
        try:
            for owner, attr, layer, counter in ENTRY_POINTS:
                setattr(owner, attr, self._wrap(getattr(owner, attr), layer, counter))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def per_layer(self, traced_ops: list[float], overhead: float,
                  counts: Counter) -> dict[str, float]:
        """The per-layer metrics, per op, over the traced ops' wall times.

        ``overhead`` is the traced op time over the untraced one, minus
        one.  ``counts`` holds the counters the workloads read from the
        program's own results (admission deferrals and sheds).
        """
        per = 1.0 / len(traced_ops)
        op_wall_s = sum(traced_ops)
        s, c, k = self.self_s, self.calls, self.counts
        allocs, epochs = c["network.schedulers"], k["epochs"]
        active = k["active_epochs"]
        return {
            "core.skew.calls": c["core.skew"] * per,
            "core.skew.self_s": s["core.skew"] * per,
            "core.strategies.self_s": s["core.strategies"] * per,
            "core.heuristic.self_s": s["core.heuristic"] * per,
            "core.heuristic.us_per_partition": _ratio(
                1e6 * self.total_s["core.heuristic"], k["partitions"]),
            "core.model.evaluate_calls": c["core.model.evaluate"] * per,
            "core.model.evaluate_s": self.total_s["core.model.evaluate"] * per,
            "core.model.to_coflow_s": self.total_s["core.model.to_coflow"] * per,
            "core.model.flows_built": k["flows_built"] * per,
            "workloads.self_s": s["workloads"] * per,
            "network.simulator.self_s": s["network.simulator"] * per,
            "network.simulator.epochs": epochs * per,
            "network.simulator.us_per_epoch": _ratio(
                1e6 * s["network.simulator"], epochs),
            "network.simulator.rate_reuse_frac": (
                1.0 - allocs / active if active else 0.0),
            "network.schedulers.allocate_calls": allocs * per,
            "network.schedulers.allocate_s": s["network.schedulers"] * per,
            "network.schedulers.us_per_allocate": _ratio(
                1e6 * s["network.schedulers"], allocs),
            "service.admission.calls": c["service.admission"] * per,
            "service.admission.self_s": s["service.admission"] * per,
            "service.admission.deferrals": counts["deferrals"] * per,
            "service.admission.shed": counts["shed"] * per,
            "network.analysis.self_s": s["network.analysis"] * per,
            "network.bounds.self_s": s["network.bounds"] * per,
            "coverage_frac": _ratio(sum(s.values()), op_wall_s),
            "obs.trace_overhead_frac": overhead,
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
