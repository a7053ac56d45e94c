"""Link-capacity topology extension beyond the non-blocking switch.

The CCF paper models the fabric as a non-blocking switch but notes (§II-B,
§V) that the framework "can be easily extended to complex network
conditions (e.g., routing) by adding parameters to these two constraints" --
the RAPIER line of work.  This module provides that extension: a two-level
oversubscribed tree (racks of hosts behind uplinks into a non-blocking
core).  Each flow traverses ``host NIC -> rack uplink -> core -> rack
downlink -> host NIC``; intra-rack flows stay below the uplink.

The extension yields (a) a generalized closed-form lower bound on CCT that
accounts for shared uplinks, and (b) a :class:`repro.network.fabric.Fabric`
-compatible validation hook, so CCF plans can be evaluated under
oversubscription (an ablation the paper leaves to future work).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.checks import at_least, positive
from repro.network.flow import Coflow

__all__ = ["TwoLevelTopology"]


@dataclass
class TwoLevelTopology:
    """Hosts grouped into racks behind (possibly oversubscribed) uplinks.

    Parameters
    ----------
    n_hosts:
        Number of machines.
    hosts_per_rack:
        Rack size; the last rack may be smaller.
    host_rate:
        NIC speed in bytes/second.
    oversubscription:
        Ratio of aggregate host bandwidth in a rack to its uplink
        bandwidth.  ``1.0`` means a full-bisection network (equivalent to
        the paper's non-blocking switch); ``4.0`` means the uplink carries
        only a quarter of the rack's aggregate NIC bandwidth.
    """

    n_hosts: int
    hosts_per_rack: int
    host_rate: float = 128e6
    oversubscription: float = 1.0

    def __post_init__(self) -> None:
        positive("n_hosts", self.n_hosts)
        positive("hosts_per_rack", self.hosts_per_rack)
        positive("host_rate", self.host_rate)
        at_least("oversubscription", self.oversubscription, 1)

    @property
    def n_racks(self) -> int:
        return -(-self.n_hosts // self.hosts_per_rack)

    def rack_of(self, host: int) -> int:
        """Rack index of a host."""
        if not 0 <= host < self.n_hosts:
            raise ValueError(f"host {host} out of range")
        return host // self.hosts_per_rack

    def rack_size(self, rack: int) -> int:
        """Number of hosts in a rack (last rack may be partial)."""
        lo = rack * self.hosts_per_rack
        return min(self.hosts_per_rack, self.n_hosts - lo)

    def uplink_rate(self, rack: int) -> float:
        """Capacity of a rack's uplink (and downlink) in bytes/second."""
        return self.rack_size(rack) * self.host_rate / self.oversubscription

    def optimal_cct(self, coflow: Coflow) -> float:
        """Closed-form bandwidth-optimal CCT under this topology.

        Generalizes the non-blocking bound ``max port load / rate`` with two
        extra constraint families: bytes leaving each rack through its
        uplink and bytes entering each rack through its downlink.  At
        ``oversubscription == 1`` the extra terms can still bind (a rack
        uplink carries the traffic of all of its hosts), but for
        all-to-all-style shuffles they coincide with the NIC bound.
        """
        if coflow.max_port >= self.n_hosts:
            raise ValueError("coflow references host beyond topology size")
        n = self.n_hosts
        send, recv = coflow.port_loads(n)
        nic_bound = max(send.max(), recv.max()) / self.host_rate

        racks = np.arange(n) // self.hosts_per_rack
        up = np.zeros(self.n_racks)
        down = np.zeros(self.n_racks)
        for f in coflow.flows:
            rs, rd = racks[f.src], racks[f.dst]
            if rs != rd:  # intra-rack traffic does not touch uplinks
                up[rs] += f.volume
                down[rd] += f.volume
        uplink_rates = np.array([self.uplink_rate(r) for r in range(self.n_racks)])
        link_bound = max(
            (up / uplink_rates).max(initial=0.0),
            (down / uplink_rates).max(initial=0.0),
        )
        return float(max(nic_bound, link_bound))

    def cct_inflation(self, coflow: Coflow) -> float:
        """Ratio of this topology's optimal CCT to the non-blocking one.

        1.0 means oversubscription does not hurt this coflow; larger values
        quantify how much the paper's non-blocking assumption underestimates
        communication time for rack-concentrated traffic.
        """
        base = coflow.bottleneck(self.n_hosts, rate=self.host_rate)
        if base == 0:
            return 1.0
        return self.optimal_cct(coflow) / base
