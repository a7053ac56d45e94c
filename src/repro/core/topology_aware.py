"""Topology-aware co-optimization: Algorithm 1 under oversubscribed trees.

The paper's model assumes a non-blocking switch but notes that "our model
can be easily extended to complex network conditions (e.g., routing) by
adding parameters to these two constraints" (§III-A, footnote 4).  This
module performs that extension for the two-level tree of
:class:`repro.network.topology.TwoLevelTopology`: beyond the per-NIC send
and receive constraints (3.1)/(3.2), every rack's uplink carries all
bytes leaving the rack and its downlink all bytes entering it.  The
objective becomes wall-clock time directly (port and uplink rates
differ):

    T = max( max_i send_i / R_nic,
             max_j recv_j / R_nic,
             max_r up_r   / R_uplink(r),
             max_r down_r / R_uplink(r) )

The greedy stays O(n·p) using the same incremental top-2 trick, with one
extra pair of load vectors at rack granularity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.heuristic import _top2
from repro.core.model import ShuffleModel
from repro.network.topology import TwoLevelTopology

__all__ = [
    "TopologyPlanMetrics",
    "ccf_heuristic_topology",
    "evaluate_on_topology",
]


@dataclass
class TopologyPlanMetrics:
    """Evaluation of an assignment under an oversubscribed topology.

    ``cct`` is the bandwidth-optimal completion time including uplink
    constraints; ``nic_seconds`` / ``uplink_seconds`` expose which family
    of constraints binds.
    """

    cct: float
    nic_seconds: float
    uplink_seconds: float
    traffic: float

    @property
    def uplink_bound(self) -> bool:
        """True when the rack uplinks (not the NICs) are the bottleneck."""
        return self.uplink_seconds > self.nic_seconds


def _rack_chunks(h: np.ndarray, racks: np.ndarray, n_racks: int) -> np.ndarray:
    """Aggregate chunk matrix to rack granularity: (n_racks, p)."""
    out = np.zeros((n_racks, h.shape[1]))
    np.add.at(out, racks, h)
    return out


def evaluate_on_topology(
    model: ShuffleModel, topo: TwoLevelTopology, dest: np.ndarray
) -> TopologyPlanMetrics:
    """Closed-form optimal CCT of an assignment under the topology."""
    if model.n != topo.n_hosts:
        raise ValueError("model nodes and topology hosts differ")
    dest = model.validate_assignment(dest)
    metrics = model.evaluate(dest)
    nic_seconds = max(
        metrics.send_loads.max(initial=0.0), metrics.recv_loads.max(initial=0.0)
    ) / topo.host_rate

    racks = np.arange(model.n) // topo.hosts_per_rack
    n_racks = topo.n_racks
    h_rack = _rack_chunks(model.h, racks, n_racks)
    sizes = model.partition_sizes
    dest_rack = racks[dest]

    up = np.zeros(n_racks)
    down = np.zeros(n_racks)
    for r in range(n_racks):
        mine = dest_rack == r
        # Bytes entering rack r: everything of its partitions held elsewhere.
        down[r] = (sizes[mine] - h_rack[r, mine]).sum()
    # Bytes leaving rack r: its chunks of partitions destined elsewhere.
    for r in range(n_racks):
        other = dest_rack != r
        up[r] = h_rack[r, other].sum()
    # Initial flows also traverse uplinks when cross-rack.
    if model.v0.any():
        v0 = model.v0
        for i in range(model.n):
            for j in range(model.n):
                if v0[i, j] and racks[i] != racks[j]:
                    up[racks[i]] += v0[i, j]
                    down[racks[j]] += v0[i, j]

    uplink_rates = np.array([topo.uplink_rate(r) for r in range(n_racks)])
    uplink_seconds = max(
        (up / uplink_rates).max(initial=0.0),
        (down / uplink_rates).max(initial=0.0),
    )
    return TopologyPlanMetrics(
        cct=max(nic_seconds, uplink_seconds),
        nic_seconds=float(nic_seconds),
        uplink_seconds=float(uplink_seconds),
        traffic=metrics.traffic,
    )


def ccf_heuristic_topology(
    model: ShuffleModel,
    topo: TwoLevelTopology,
    *,
    sort_partitions: bool = True,
) -> np.ndarray:
    """Algorithm 1 with rack-uplink constraints folded into ``T_d``.

    Identical greedy skeleton to :func:`repro.core.heuristic.ccf_heuristic`
    but each candidate destination is scored in seconds, combining the NIC
    terms with the destination rack's uplink/downlink terms.
    """
    if model.n != topo.n_hosts:
        raise ValueError("model nodes and topology hosts differ")
    n, p = model.n, model.p
    dest = np.zeros(p, dtype=np.int64)
    if p == 0 or n == 1:
        return dest

    racks = np.arange(n) // topo.hosts_per_rack
    n_racks = topo.n_racks
    uplink_rates = np.array([topo.uplink_rate(r) for r in range(n_racks)])
    r_nic = topo.host_rate

    h = model.h
    h_rack = _rack_chunks(h, racks, n_racks)
    sizes = model.partition_sizes
    rack_sizes = h_rack  # alias for clarity below

    send0, recv0 = model.initial_loads()
    send = send0.copy()
    recv = recv0.copy()
    up = np.zeros(n_racks)
    down = np.zeros(n_racks)
    if model.v0.any():
        for i in range(n):
            for j in range(n):
                if model.v0[i, j] and racks[i] != racks[j]:
                    up[racks[i]] += model.v0[i, j]
                    down[racks[j]] += model.v0[i, j]

    order = (
        np.argsort(-h.max(axis=0), kind="stable") if sort_partitions else np.arange(p)
    )

    for k in order:
        col = h[:, k]
        col_rack = rack_sizes[:, k]
        s_k = sizes[k]

        # NIC send: as in the flat heuristic, in seconds.
        base_send = send + col
        m1, a1, m2 = _top2(base_send)
        max_send = np.full(n, m1)
        max_send[a1] = max(m2, send[a1])

        r1, b1, r2 = _top2(recv)
        max_recv_others = np.full(n, r1)
        max_recv_others[b1] = r2
        recv_candidate = recv + (s_k - col)
        max_recv = np.maximum(max_recv_others, recv_candidate)

        nic_time = np.maximum(max_send, max_recv) / r_nic

        # Rack terms, computed per candidate rack then expanded to nodes.
        base_up = (up + col_rack) / uplink_rates
        u1, ua, u2 = _top2(base_up)
        max_up_rack = np.full(n_racks, u1)
        max_up_rack[ua] = max(u2, up[ua] / uplink_rates[ua])

        down_time = down / uplink_rates
        d1, da, d2 = _top2(down_time)
        max_down_others = np.full(n_racks, d1)
        max_down_others[da] = d2
        down_candidate = (down + (s_k - col_rack)) / uplink_rates
        max_down_rack = np.maximum(max_down_others, down_candidate)

        rack_time = np.maximum(max_up_rack, max_down_rack)[racks]

        t_d = np.maximum(nic_time, rack_time)
        t_min = t_d.min()
        ties = np.flatnonzero(t_d <= t_min * (1 + 1e-12) + 1e-9)
        d = int(ties[np.argmax(col[ties])])

        dest[k] = d
        send += col
        send[d] -= col[d]
        recv[d] += s_k - col[d]
        rd = racks[d]
        up += col_rack
        up[rd] -= col_rack[rd]
        down[rd] += s_k - col_rack[rd]

    return dest
