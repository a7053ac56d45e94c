"""Distributed (left) outer joins and semi-join reduction.

The CCF paper's reference list leans on its authors' outer-join work
(refs [16], [20]: skew handling and small-large outer joins in the
cloud); this module brings those operators into the framework:

* :class:`DistributedOuterJoin` -- ``left LEFT OUTER JOIN right``:
  matching rows behave like the inner join, and every unmatched left row
  survives with a NULL right side.  The shuffle (and hence the CCF
  model) is identical to the inner join's -- outer semantics are purely a
  local-processing concern once keys are co-located.
* :func:`semijoin_reduction` -- the classical traffic reducer: ship only
  the *key set* of one side first, filter the other side down to rows
  that can possibly match, and only then run the real shuffle.  For
  selective joins this trades a small key-broadcast for a large cut of
  the data shuffle, exactly the "reduce the volume of transferred data"
  family the paper cites (§I, §V).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.checks import positive
from repro.core.plan import ExecutionPlan
from repro.join.operators import DistributedJoin
from repro.join.relation import DistributedRelation

__all__ = [
    "DistributedOuterJoin",
    "OuterJoinResult",
    "SemiJoinReduction",
    "semijoin_reduction",
]


@dataclass
class OuterJoinResult:
    """Outcome of a left outer join execution.

    ``cardinality`` counts inner matches plus one row per unmatched left
    tuple (the NULL-padded rows).
    """

    plan: ExecutionPlan
    cardinality: int
    matched: int
    unmatched_left: int
    realized_traffic: float


class DistributedOuterJoin(DistributedJoin):
    """``left LEFT OUTER JOIN right`` on the common key.

    Inherits the inner join's shuffle model and skew handling wholesale:
    the network problem is the same; only the local join keeps unmatched
    left rows.
    """

    def expected_cardinality(self) -> int:
        """Centralized ground truth including NULL-padded rows."""
        left_keys = self.left.all_keys()
        right_keys = self.right.all_keys()
        inner = super().expected_cardinality()
        matched_left = int(np.isin(left_keys, right_keys).sum())
        return inner + (left_keys.size - matched_left)

    def execute_outer(
        self, plan: ExecutionPlan, *, skew_handling: bool | None = None
    ) -> OuterJoinResult:
        """Run the shuffle, then the outer-aware local joins.

        Correctness argument for the broadcast (skew) path: a left tuple
        is replicated to every node, so counting its NULL row naively
        would multiply it.  We therefore count unmatched left rows
        globally: a left key is unmatched iff it matches nothing
        anywhere, which co-location makes checkable per key.
        """
        inner = self.execute(plan, skew_handling=skew_handling)

        # Unmatched left rows, computed from global key multiset algebra
        # (exact, and independent of where replicas landed).
        left_keys = self.left.all_keys()
        right_keys = self.right.all_keys()
        matched_mask = np.isin(left_keys, right_keys)
        unmatched = int(left_keys.size - matched_mask.sum())

        return OuterJoinResult(
            plan=plan,
            cardinality=inner.cardinality + unmatched,
            matched=inner.cardinality,
            unmatched_left=unmatched,
            realized_traffic=inner.realized_traffic,
        )


@dataclass
class SemiJoinReduction:
    """Outcome of a semi-join pre-filter.

    Attributes
    ----------
    reduced:
        The filtered big relation (only rows whose key appears in the
        small side's key set).
    key_broadcast_bytes:
        Cost of shipping the key set to every node,
        ``(n - 1) * |distinct keys| * key_bytes``.
    bytes_saved:
        Shuffle bytes that no longer need to move (upper bound: the
        filtered-out rows' bytes).
    """

    reduced: DistributedRelation
    key_broadcast_bytes: float
    bytes_saved: float

    @property
    def worthwhile(self) -> bool:
        """Did the filter save more than the key broadcast cost?"""
        return self.bytes_saved > self.key_broadcast_bytes


def semijoin_reduction(
    small: DistributedRelation,
    big: DistributedRelation,
    *,
    key_bytes: float = 8.0,
) -> SemiJoinReduction:
    """Filter ``big`` down to keys present in ``small``.

    Models the classical Bloom-filter/semi-join reducer with an exact key
    set (a Bloom filter would shrink ``key_broadcast_bytes`` further at
    the price of false positives).
    """
    if small.n_nodes != big.n_nodes:
        raise ValueError("relations must span the same nodes")
    positive("key_bytes", key_bytes)
    keys = np.unique(small.all_keys())
    reduced = big.only_keys(keys)
    dropped = big.total_tuples - reduced.total_tuples
    return SemiJoinReduction(
        reduced=reduced,
        key_broadcast_bytes=float(
            (small.n_nodes - 1) * keys.size * key_bytes
        ),
        bytes_saved=float(dropped * big.payload_bytes),
    )
