"""Scheduling context shared between the simulator and the schedulers.

The simulator exposes the state of all *active* (arrived, unfinished) flows
to the scheduling discipline as flat numpy arrays -- the idiomatic HPC
representation that lets every discipline run vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.network.fabric import Fabric

__all__ = ["CoflowProgress", "FlowGroups", "SchedulingContext"]


@dataclass
class CoflowProgress:
    """Book-keeping for one coflow during simulation.

    ``sent_bytes`` is the information available to *non-clairvoyant*
    schedulers (Aalo's D-CLAS prioritizes by it); ``total_volume`` and the
    per-flow remaining volumes are only consulted by clairvoyant disciplines
    (SCF, NCF, SEBF).
    """

    coflow_id: int
    arrival_time: float
    total_volume: float
    width: int
    name: str = ""
    sent_bytes: float = 0.0
    completion_time: float | None = None
    deadline: float | None = None
    weight: float = 1.0

    @property
    def absolute_deadline(self) -> float | None:
        """Deadline as an absolute simulation time, or None."""
        if self.deadline is None:
            return None
        return self.arrival_time + self.deadline

    @property
    def finished(self) -> bool:
        return self.completion_time is not None


class FlowGroups:
    """Per-coflow index structure over the flat active-flow arrays.

    Grouping the flows of each coflow with boolean masks costs
    ``O(n_flows)`` per coflow per query -- ``O(n_flows * n_coflows)`` per
    epoch once every discipline asks for every coflow's flows and
    aggregates.  ``FlowGroups`` computes the grouping once (``O(n log n)``)
    and answers every per-coflow query from contiguous slices.  The
    structure only depends on the *identity* of the active flows, not on
    their remaining volumes, so the simulator builds it once per
    ``ActiveFlows.version`` and reuses it across epochs until a flow is
    appended or removed.  When completed flows leave, it derives the
    survivors' grouping with :meth:`kept` instead of rebuilding it.

    Numerical compatibility: ``indices_of`` returns exactly the array
    ``np.nonzero(coflow_ids == cid)[0]`` would (ascending order), and
    :meth:`value_sums` gathers each group into a contiguous buffer before
    reducing it with ``np.add`` -- same elements, same order, same pairwise
    summation tree as ``values[coflow_ids == cid].sum()`` -- so callers
    switching from masks to groups get bit-identical floats.
    """

    __slots__ = ("unique_cids", "inverse", "order", "starts", "counts", "_slot")

    def __init__(self, coflow_ids: np.ndarray) -> None:
        self.unique_cids, self.inverse = np.unique(
            coflow_ids, return_inverse=True
        )
        # Stable argsort keeps ascending flow order inside each group.
        self.order = np.argsort(self.inverse, kind="stable")
        self.counts = np.bincount(
            self.inverse, minlength=self.unique_cids.size
        )
        self.starts = np.concatenate(([0], np.cumsum(self.counts)))
        self._slot = {int(c): i for i, c in enumerate(self.unique_cids)}

    def kept(self, mask: np.ndarray) -> "FlowGroups":
        """The grouping of the flows where the boolean ``mask`` is True.

        Field for field (dtypes included) what ``FlowGroups(coflow_ids[
        mask])`` builds, derived without a sort: the kept flows keep
        their relative order, so filtering ``order`` through the new flow
        positions leaves each group ascending, and only groups that lose
        every flow are dropped from the numbering.
        """
        new = FlowGroups.__new__(FlowGroups)
        inverse = self.inverse[mask]
        counts = np.bincount(inverse, minlength=self.unique_cids.size)
        alive = counts > 0
        if alive.all():
            new.unique_cids = self.unique_cids
            new._slot = self._slot
        else:
            inverse = (np.cumsum(alive) - 1)[inverse]
            counts = counts[alive]
            new.unique_cids = self.unique_cids[alive]
            new._slot = {int(c): i for i, c in enumerate(new.unique_cids)}
        new.inverse = inverse
        new.counts = counts
        new.starts = np.concatenate(([0], np.cumsum(counts)))
        new.order = (np.cumsum(mask) - 1)[self.order[mask[self.order]]]
        return new

    @property
    def n_groups(self) -> int:
        return int(self.unique_cids.size)

    def slot(self, coflow_id: int) -> int | None:
        """Group index of a coflow id, or None when it has no flows."""
        return self._slot.get(int(coflow_id))

    def indices_of(self, coflow_id: int) -> np.ndarray:
        """Ascending flow indices of one coflow (empty when unknown)."""
        gi = self._slot.get(int(coflow_id))
        if gi is None:
            return np.empty(0, dtype=self.order.dtype)
        return self.order[self.starts[gi]:self.starts[gi + 1]]

    def value_sums(self, values: np.ndarray) -> list[float]:
        """Per-group sums of a flow-aligned array, in ``unique_cids`` order.

        Bit-identical to ``float(values[coflow_ids == cid].sum())`` for
        each group (see class docstring).
        """
        gathered = values.take(self.order)
        # ``np.add.reduce`` is the reduction ``ndarray.sum`` runs, minus
        # its Python wrapper (``np.add.reduceat`` sums in another order).
        add = np.add.reduce
        starts = self.starts.tolist()
        return [
            float(add(gathered[lo:hi]))
            for lo, hi in zip(starts, starts[1:])
        ]

    def scaled_value_sums(
        self, scales: list[float], values: np.ndarray
    ) -> list[list[float]]:
        """``value_sums(values * s)`` for every ``s`` in ``scales``, as columns.

        Returns one list per group (``unique_cids`` order) holding that
        group's sum under each scale in turn, bit-identical to calling
        :meth:`value_sums` once per scale: the outer product multiplies
        the same element pairs, and each row of a group's 2-D slice is
        reduced by the same contiguous pairwise ``np.add`` as the 1-D
        gather (``np.add.reduceat`` would not be).  One call replaces
        ``len(scales)`` gathers and reductions.
        """
        if len(scales) == 1:
            return [[v] for v in self.value_sums(values * scales[0])]
        scaled = np.multiply.outer(scales, values.take(self.order))
        add = np.add.reduce
        starts = self.starts.tolist()
        return [
            add(scaled[:, lo:hi], axis=1).tolist()
            for lo, hi in zip(starts, starts[1:])
        ]

    def expand(self, per_group: np.ndarray) -> np.ndarray:
        """Broadcast one value per group back onto the flow axis."""
        return np.asarray(per_group)[self.inverse]

    def all_done_mask(self, done: np.ndarray) -> np.ndarray:
        """Boolean per group: every flow of the group satisfies ``done``."""
        done_counts = np.bincount(
            self.inverse[done], minlength=self.n_groups
        )
        return done_counts == self.counts


@dataclass
class SchedulingContext:
    """Snapshot of simulator state handed to a scheduler at each epoch.

    All flow-level attributes are parallel arrays of length ``n_flows``
    covering only active flows.  A scheduler returns an array of rates
    (bytes/second) aligned with these arrays.

    ``groups`` is the :class:`FlowGroups` index over ``coflow_ids``; the
    per-coflow queries and the bulk aggregate methods answer from it
    instead of scanning the full arrays.  The simulator passes its cached
    instance (rebuilt only when the active flow set changes); a context
    built without one derives it on construction.
    """

    time: float
    fabric: Fabric
    srcs: np.ndarray
    dsts: np.ndarray
    remaining: np.ndarray
    coflow_ids: np.ndarray
    progress: dict[int, CoflowProgress] = field(default_factory=dict)
    groups: FlowGroups | None = None

    def __post_init__(self) -> None:
        self.groups = self.groups or FlowGroups(self.coflow_ids)

    @property
    def n_flows(self) -> int:
        return int(self.srcs.shape[0])

    def active_coflow_ids(self) -> list[int]:
        """Distinct coflow ids with at least one active flow, ascending."""
        return [int(c) for c in self.groups.unique_cids]

    def flows_of(self, coflow_id: int) -> np.ndarray:
        """Indices (into the flat arrays) of the coflow's active flows."""
        return self.groups.indices_of(coflow_id)

    def remaining_volume(self, coflow_id: int) -> float:
        """Total unfinished bytes of one coflow."""
        return float(self.remaining[self.coflow_ids == coflow_id].sum())

    def remaining_volumes(self) -> list[float]:
        """Remaining bytes of every active coflow, ``active_coflow_ids`` order."""
        return self.groups.value_sums(self.remaining)

    def coflow_rate_sums(self, rates: np.ndarray) -> list[float]:
        """Aggregate rate of every active coflow, ``active_coflow_ids`` order."""
        return self.groups.value_sums(rates)

    def remaining_bottlenecks(self) -> list[float]:
        """Gamma of every active coflow's remainder, ``active_coflow_ids`` order.

        Vectorized over all coflows at once: one combined bincount keyed
        by ``group * n_ports + port`` accumulates every (coflow, port) load
        cell in ascending flow order -- the same order the per-coflow
        :meth:`remaining_bottleneck` bincount uses, so the sums (and the
        resulting Gammas) are bit-identical.
        """
        g = self.groups
        k = g.n_groups
        n = self.fabric.n_ports
        cell = g.inverse * n
        send = np.bincount(
            cell + self.srcs, weights=self.remaining, minlength=k * n
        ).reshape(k, n)
        recv = np.bincount(
            cell + self.dsts, weights=self.remaining, minlength=k * n
        ).reshape(k, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_out = np.where(
                self.fabric.egress_rates > 0,
                send / self.fabric.egress_rates,
                np.where(send > 0, np.inf, 0.0),
            )
            t_in = np.where(
                self.fabric.ingress_rates > 0,
                recv / self.fabric.ingress_rates,
                np.where(recv > 0, np.inf, 0.0),
            )
        per = np.maximum(t_out.max(axis=1), t_in.max(axis=1))
        return [float(v) for v in per]

    def remaining_bottleneck(self, coflow_id: int) -> float:
        """Varys' effective bottleneck Gamma_c of the coflow's remainder.

        Computed against the *full* port capacities (the coflow's intrinsic
        finishing time if it had the fabric to itself).
        """
        idx = self.flows_of(coflow_id)
        if idx.size == 0:
            return 0.0
        n = self.fabric.n_ports
        send = np.bincount(self.srcs[idx], weights=self.remaining[idx], minlength=n)
        recv = np.bincount(self.dsts[idx], weights=self.remaining[idx], minlength=n)
        # A failed port has zero capacity; load routed through it would
        # need infinite time, while an idle dead port contributes nothing.
        with np.errstate(divide="ignore", invalid="ignore"):
            t_out = np.where(
                self.fabric.egress_rates > 0,
                send / self.fabric.egress_rates,
                np.where(send > 0, np.inf, 0.0),
            )
            t_in = np.where(
                self.fabric.ingress_rates > 0,
                recv / self.fabric.ingress_rates,
                np.where(recv > 0, np.inf, 0.0),
            )
        return float(max(t_out.max(), t_in.max()))
