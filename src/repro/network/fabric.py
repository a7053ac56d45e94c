"""The datacenter fabric model: a non-blocking switch.

Following Varys and the CCF paper (§II-B), the network core is abstracted
as one big non-blocking switch interconnecting all machines: congestion can
only occur at machine NICs (ingress/egress ports), never inside the core.
This matches full-bisection-bandwidth Clos topologies used in production
data centers.

All port rates default to 128 MB/s (CoflowSim's 1 Gbps NIC default), the
value used to convert the paper's byte counts into seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.checks import finite_entries, positive

__all__ = ["Fabric", "DEFAULT_PORT_RATE"]

#: CoflowSim's default NIC speed: 1 Gbps expressed in bytes per second.
DEFAULT_PORT_RATE: float = 128e6


@dataclass
class Fabric:
    """A non-blocking switch with ``n_ports`` machines attached.

    Parameters
    ----------
    n_ports:
        Number of machines (== number of ingress ports == egress ports).
    rate:
        Uniform port capacity in bytes/second.  The paper assumes all ports
        share one normalized unit capacity; heterogeneous rates are
        supported through ``egress_rates`` / ``ingress_rates``.
    egress_rates, ingress_rates:
        Optional per-port capacities overriding ``rate``.
    """

    n_ports: int
    rate: float = DEFAULT_PORT_RATE
    egress_rates: np.ndarray | None = field(default=None)
    ingress_rates: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        if self.n_ports <= 0:
            raise ValueError("fabric needs at least one port")
        positive("port rate", self.rate)
        for attr in ("egress_rates", "ingress_rates"):
            arr = getattr(self, attr)
            arr = (np.full(self.n_ports, float(self.rate)) if arr is None
                   else np.asarray(arr, dtype=float).copy())
            if arr.shape != (self.n_ports,):
                raise ValueError(f"{attr} must have shape ({self.n_ports},)")
            setattr(self, attr, finite_entries(attr, arr, strict=True))

    def egress_alive(self) -> np.ndarray:
        """Boolean mask of ports that can currently send (rate > 0).

        Construction requires strictly positive rates; a zero only appears
        mid-simulation when a failure event from
        :mod:`repro.network.dynamics` kills the direction.
        """
        return self.egress_rates > 0

    def ingress_alive(self) -> np.ndarray:
        """Boolean mask of ports that can currently receive (rate > 0)."""
        return self.ingress_rates > 0

    def alive(self) -> np.ndarray:
        """Boolean mask of fully functional ports (both directions up)."""
        return self.egress_alive() & self.ingress_alive()

    @property
    def uniform(self) -> bool:
        """True when every port has the same ingress and egress rate."""
        return bool(
            np.all(self.egress_rates == self.egress_rates[0])
            and np.all(self.ingress_rates == self.egress_rates[0])
        )

    def validate_rates(
        self,
        srcs: np.ndarray,
        dsts: np.ndarray,
        rates: np.ndarray,
        *,
        rtol: float = 1e-6,
    ) -> None:
        """Check that a rate allocation respects port capacities.

        Raises ``ValueError`` when the aggregate egress rate at any source
        or ingress rate at any destination exceeds the port capacity
        (within relative tolerance ``rtol``).  Used by the simulator to
        assert scheduler feasibility at every epoch.
        """
        if (rates < 0).any():
            raise ValueError("negative flow rate")
        out = np.bincount(srcs, weights=rates, minlength=self.n_ports)
        inb = np.bincount(dsts, weights=rates, minlength=self.n_ports)
        tol_out = self.egress_rates * (1 + rtol)
        tol_in = self.ingress_rates * (1 + rtol)
        if (out > tol_out).any():
            port = int(np.argmax(out - tol_out))
            raise ValueError(
                f"egress capacity violated at port {port}: "
                f"{out[port]:.6g} > {self.egress_rates[port]:.6g}"
            )
        if (inb > tol_in).any():
            port = int(np.argmax(inb - tol_in))
            raise ValueError(
                f"ingress capacity violated at port {port}: "
                f"{inb[port]:.6g} > {self.ingress_rates[port]:.6g}"
            )
