"""Logical query plans over distributed relations.

A minimal relational algebra sufficient for the paper's workload class
(key-based analytics): scans, key filters, equi-joins on the common key,
group-by-key aggregation and duplicate elimination.  Logical nodes carry
no data -- :mod:`repro.analytics.compile` binds them to a catalog,
estimates cardinalities, orders joins, and lowers each network-crossing
operator to a CCF-schedulable stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.checks import in_range

__all__ = ["LogicalPlan", "Scan", "Filter", "EquiJoin", "GroupByKey", "Distinct"]


@dataclass(frozen=True)
class LogicalPlan:
    """Base class for logical operators (immutable tree nodes)."""

    def children(self) -> tuple["LogicalPlan", ...]:
        """Child nodes, left to right."""
        return ()

    def describe(self, indent: int = 0) -> str:
        """Pretty tree rendering."""
        pad = "  " * indent
        own = f"{pad}{self!r}"
        return "\n".join(
            [own, *(c.describe(indent + 1) for c in self.children())]
        )


@dataclass(frozen=True)
class Scan(LogicalPlan):
    """Read a named base relation from the catalog."""

    table: str

    def __repr__(self) -> str:
        return f"Scan({self.table})"


@dataclass(frozen=True)
class Filter(LogicalPlan):
    """Keep tuples whose key satisfies a vectorized predicate.

    Parameters
    ----------
    child:
        Input plan.
    predicate:
        Maps an int64 key array to a boolean mask.  Applied locally on
        every node -- filters never cross the network.
    selectivity:
        Estimated fraction of tuples kept, used for costing; the executor
        measures the real value.
    """

    child: LogicalPlan
    predicate: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    selectivity: float = 0.5
    label: str = "pred"

    def __post_init__(self) -> None:
        in_range("selectivity", self.selectivity, 0, 1)

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def __repr__(self) -> str:
        return f"Filter({self.label}, sel={self.selectivity})"


@dataclass(frozen=True)
class EquiJoin(LogicalPlan):
    """Equi-join of two inputs on the common key."""

    left: LogicalPlan
    right: LogicalPlan

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return "EquiJoin"


@dataclass(frozen=True)
class GroupByKey(LogicalPlan):
    """Count tuples per key (the aggregation operator of the paper)."""

    child: LogicalPlan
    pre_aggregate: bool = True

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def __repr__(self) -> str:
        return f"GroupByKey(pre_aggregate={self.pre_aggregate})"


@dataclass(frozen=True)
class Distinct(LogicalPlan):
    """Duplicate elimination on the key."""

    child: LogicalPlan

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def __repr__(self) -> str:
        return "Distinct"
