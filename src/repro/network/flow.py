"""The coflow abstraction.

A *flow* is a point-to-point transfer ``[src, dst, volume]`` (Chowdhury &
Stoica, HotNets'12; CCF paper §II-B).  A *coflow* is a group of parallel
flows that share a common performance goal -- e.g. all shuffle flows of one
distributed join.  The metric of interest is the *coflow completion time*
(CCT): the finish time of the slowest flow in the group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.core.checks import non_negative, positive

__all__ = ["Flow", "Coflow", "coflow_from_matrix"]


@dataclass
class Flow:
    """A single point-to-point data transfer.

    Parameters
    ----------
    src, dst:
        Port (machine) indices in ``[0, n_ports)``.  ``src == dst`` is
        rejected: local data movement consumes no network resources
        (CCF paper §III-A) and must be filtered out before simulation.
    volume:
        Transfer size in bytes.  Must be finite and strictly positive.
    flow_id:
        Unique identifier assigned by the owning :class:`Coflow`.
    """

    src: int
    dst: int
    volume: float
    flow_id: int = -1

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(
                f"flow src == dst == {self.src}; local movement is not a network flow"
            )
        positive("flow volume", self.volume)
        if self.src < 0 or self.dst < 0:
            raise ValueError("port indices must be non-negative")


@dataclass
class Coflow:
    """A group of parallel flows with a shared completion-time goal.

    Parameters
    ----------
    flows:
        The member flows.  Duplicate ``(src, dst)`` pairs are merged into a
        single flow (the paper notes flows between the same pair of nodes
        are combined "in real implementations", §II-B).
    arrival_time:
        Simulation time (seconds) at which the coflow becomes eligible for
        scheduling.  The CCF paper assumes all flows of a coflow start
        together; online arrivals are supported for the Aalo-style
        schedulers.
    coflow_id:
        Identifier used in simulation results.
    name:
        Optional human-readable label.
    deadline:
        Optional completion deadline in seconds *relative to arrival*.
        Only the deadline-aware scheduler consults it (Varys' deadline
        mode); every other discipline ignores it.
    weight:
        Relative priority weight (default 1).  Consulted by the weighted
        fair-sharing discipline: a weight-2 coflow's flows receive twice
        the rate of weight-1 flows wherever they contend.
    """

    flows: list[Flow] = field(default_factory=list)
    arrival_time: float = 0.0
    coflow_id: int = -1
    name: str = ""
    deadline: float | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        non_negative("arrival_time", self.arrival_time)
        if self.deadline is not None:
            positive("deadline", self.deadline)
        positive("weight", self.weight)
        merged: dict[tuple[int, int], float] = {}
        for f in self.flows:
            merged[(f.src, f.dst)] = merged.get((f.src, f.dst), 0.0) + f.volume
        self.flows = [
            Flow(src=s, dst=d, volume=v, flow_id=i)
            for i, ((s, d), v) in enumerate(sorted(merged.items()))
        ]

    def __len__(self) -> int:
        return len(self.flows)

    def __iter__(self) -> Iterator[Flow]:
        return iter(self.flows)

    def flow_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(srcs, dsts, volumes)`` as flat arrays, cached on the coflow.

        The simulator admits coflows by appending these arrays to its
        active-flow columns; caching avoids rebuilding them from the
        ``Flow`` objects on every (re)admission.  The cache assumes the
        flow list is not mutated after first use -- the constructor
        already canonicalizes (merges + sorts) the flows, and the
        simulator treats coflows as immutable.
        """
        cached = getattr(self, "_flow_arrays", None)
        if cached is None:
            cached = (
                np.array([f.src for f in self.flows], dtype=np.int64),
                np.array([f.dst for f in self.flows], dtype=np.int64),
                np.array([f.volume for f in self.flows], dtype=float),
            )
            self._flow_arrays = cached
        return cached

    @property
    def total_volume(self) -> float:
        """Sum of all flow volumes in bytes (the coflow *size*)."""
        return float(sum(f.volume for f in self.flows))

    @property
    def width(self) -> int:
        """Number of distinct (src, dst) flows (the coflow *width*)."""
        return len(self.flows)

    @property
    def max_port(self) -> int:
        """Largest port index referenced by any flow."""
        if not self.flows:
            return -1
        return max(max(f.src, f.dst) for f in self.flows)

    def port_loads(self, n_ports: int) -> tuple[np.ndarray, np.ndarray]:
        """Aggregate (send_bytes, recv_bytes) per port.

        Returns two arrays of length ``n_ports``: bytes each port must emit
        and ingest for this coflow.  These are the quantities bounded by
        ``T`` in the paper's model (3).
        """
        send = np.zeros(n_ports)
        recv = np.zeros(n_ports)
        for f in self.flows:
            send[f.src] += f.volume
            recv[f.dst] += f.volume
        return send, recv

    def bottleneck(self, n_ports: int, rate: float = 1.0) -> float:
        """The coflow's bandwidth-optimal CCT on an idle fabric.

        Equals ``max(max_i send_i, max_j recv_j) / rate`` -- the "effective
        bottleneck" Gamma of Varys.  With MADD rate allocation every flow
        finishes exactly at this time, so it is also the minimum possible
        CCT for the coflow in isolation.
        """
        if not self.flows:
            return 0.0
        send, recv = self.port_loads(n_ports)
        return float(max(send.max(), recv.max()) / rate)

    def volume_matrix(self, n_ports: int) -> np.ndarray:
        """Dense ``(n_ports, n_ports)`` matrix ``V[i, j]`` of flow volumes."""
        mat = np.zeros((n_ports, n_ports))
        for f in self.flows:
            mat[f.src, f.dst] += f.volume
        return mat


def coflow_from_matrix(
    volumes: np.ndarray | Iterable[Iterable[float]],
    *,
    arrival_time: float = 0.0,
    coflow_id: int = -1,
    name: str = "",
    min_volume: float = 0.0,
    weight: float = 1.0,
) -> Coflow:
    """Build a :class:`Coflow` from a square volume matrix.

    ``volumes[i, j]`` is the number of bytes to move from port ``i`` to
    port ``j``.  The diagonal (local movement) and entries ``<= min_volume``
    are ignored.
    """
    vol = np.asarray(volumes, dtype=float)
    if vol.ndim != 2 or vol.shape[0] != vol.shape[1]:
        raise ValueError(f"volume matrix must be square, got shape {vol.shape}")
    if not (vol >= 0).all():
        raise ValueError("volume matrix entries must be non-negative")
    srcs, dsts = np.nonzero(vol > min_volume)
    flows = [
        Flow(src=int(i), dst=int(j), volume=float(vol[i, j]))
        for i, j in zip(srcs, dsts)
        if i != j
    ]
    return Coflow(
        flows=flows,
        arrival_time=arrival_time,
        coflow_id=coflow_id,
        name=name,
        weight=weight,
    )
