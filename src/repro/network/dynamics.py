"""Fabric dynamics: port-rate changes during a simulation.

The paper's long-term goal is a system "robust in the presence of
different workloads and network configurations" (§VI).  This module lets
the simulator model the network-configuration half: scheduled changes to
per-port rates (background traffic stealing bandwidth, degraded links,
recovering ports) and, since the fault-tolerance extension, outright port
*failures* -- a rate of exactly zero marks the direction dead.  The fluid
simulator splits epochs at every event so rate allocations are always
computed against the current capacities, and hands flows pinned to a dead
port to a :mod:`repro.network.recovery` policy instead of deadlocking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.checks import non_negative, positive
from repro.network.fabric import Fabric

__all__ = ["RateEvent", "FabricDynamics"]


@dataclass(frozen=True)
class RateEvent:
    """One scheduled capacity change.

    Parameters
    ----------
    time:
        Simulation time (seconds) the change takes effect; ``inf``
        schedules a change that never fires.
    port:
        Affected port index.
    egress, ingress:
        New capacities in bytes/second; ``None`` leaves the direction
        unchanged.  A capacity of exactly ``0.0`` marks the direction
        *dead* (port failure): the simulator strands flows pinned to it
        and applies the run's recovery policy.  Negative rates are
        rejected.
    """

    time: float
    port: int
    egress: float | None = None
    ingress: float | None = None

    def __post_init__(self) -> None:
        non_negative("event time", self.time, inf_ok=True)
        if self.port < 0:
            raise ValueError("port must be non-negative")
        for v, nm in ((self.egress, "egress"), (self.ingress, "ingress")):
            if v is not None:
                non_negative(f"{nm} rate", v)
        if self.egress is None and self.ingress is None:
            raise ValueError("event must change at least one direction")

    @property
    def is_failure(self) -> bool:
        """True when the event kills at least one direction (rate 0)."""
        return self.egress == 0.0 or self.ingress == 0.0

    @classmethod
    def failure(cls, time: float, port: int) -> "RateEvent":
        """A full port failure: both directions go dark at ``time``."""
        return cls(time=time, port=port, egress=0.0, ingress=0.0)

    @classmethod
    def recovery(
        cls, time: float, port: int, *, egress: float, ingress: float
    ) -> "RateEvent":
        """A repair event restoring both directions of ``port``."""
        positive("recovery egress rate", egress)
        positive("recovery ingress rate", ingress)
        return cls(time=time, port=port, egress=egress, ingress=ingress)


@dataclass
class FabricDynamics:
    """An ordered schedule of :class:`RateEvent` changes.

    The schedule is *reusable*: :meth:`apply_due` advances an internal
    cursor instead of consuming events, so the same object can drive any
    number of simulations (call :meth:`rewind` between manual replays;
    :class:`~repro.network.simulator.CoflowSimulator` works on a private
    copy and never mutates the caller's schedule).

    Events sharing the same timestamp are applied in their sorted
    (stable) order, so a later entry on the same port wins.
    """

    events: list[RateEvent] = field(default_factory=list)
    _cursor: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda e: e.time)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def has_failures(self) -> bool:
        """True when any scheduled event zeroes a port direction."""
        return any(e.is_failure for e in self.events)

    @property
    def pending(self) -> int:
        """Number of events not yet applied (cursor to end)."""
        return len(self.events) - self._cursor

    def rewind(self) -> None:
        """Reset the cursor so the schedule can be replayed from t=0."""
        self._cursor = 0

    def validate_against(self, fabric: Fabric) -> None:
        """Check every event references a real port."""
        for e in self.events:
            if e.port >= fabric.n_ports:
                raise ValueError(
                    f"rate event at t={e.time} references port {e.port} "
                    f">= fabric size {fabric.n_ports}"
                )

    def peek_time(self) -> float | None:
        """Timestamp of the next unapplied event, or None when drained.

        O(1) and allocation-free -- the simulator's epoch loop calls this
        (via :meth:`next_event_time`) every epoch.
        """
        if self._cursor < len(self.events):
            return self.events[self._cursor].time
        return None

    def next_event_time(self, now: float) -> float | None:
        """Earliest unapplied event strictly after ``now``, or None.

        Events are time-sorted and the cursor never rewinds mid-run, so
        this walks forward by index from the cursor instead of slicing
        (the old ``events[cursor:]`` copied the whole remaining schedule
        on every epoch).
        """
        for i in range(self._cursor, len(self.events)):
            t = self.events[i].time
            if t > now + 1e-15:
                return t
        return None

    def apply_due(self, fabric: Fabric, now: float) -> bool:
        """Apply all unapplied events with ``time <= now`` exactly once.

        The events stay in the schedule (the cursor advances past them),
        so the same :class:`FabricDynamics` can drive multiple runs after
        a :meth:`rewind`.  Returns True when any change was applied.
        """
        applied = False
        while self._cursor < len(self.events):
            e = self.events[self._cursor]
            if e.time > now + 1e-15:
                break
            if e.egress is not None:
                fabric.egress_rates[e.port] = e.egress
            if e.ingress is not None:
                fabric.ingress_rates[e.port] = e.ingress
            self._cursor += 1
            applied = True
        return applied

    @classmethod
    def degrade(
        cls,
        *,
        time: float,
        ports: list[int],
        factor: float,
        fabric: Fabric,
        recover_at: float | None = None,
    ) -> "FabricDynamics":
        """Convenience: scale both directions of ``ports`` by ``factor``.

        With ``recover_at`` set, matching events restore the original
        rates at that time.
        """
        positive("factor", factor)
        events = []
        for p in ports:
            orig_e = float(fabric.egress_rates[p])
            orig_i = float(fabric.ingress_rates[p])
            events.append(
                RateEvent(
                    time=time, port=p,
                    egress=orig_e * factor, ingress=orig_i * factor,
                )
            )
            if recover_at is not None:
                events.append(
                    RateEvent(
                        time=recover_at, port=p, egress=orig_e, ingress=orig_i
                    )
                )
        return cls(events=events)

    @classmethod
    def fail(
        cls,
        *,
        time: float,
        ports: list[int],
        fabric: Fabric,
        recover_at: float | None = None,
        direction: str = "both",
    ) -> "FabricDynamics":
        """Convenience: kill ``ports`` (affected directions go to zero).

        ``direction`` selects what dies: ``"both"`` models a full node
        loss, ``"ingress"`` a receiver-side loss (the reducer/storage on
        the node dies but its map outputs remain readable -- the case the
        ``replan`` policy is designed for), ``"egress"`` a sender-side
        loss.  With ``recover_at`` set, repair events restore the
        original rates at that time; without it the ports stay dead for
        the whole run, which only the ``abort`` and ``replan`` recovery
        policies can survive.
        """
        if direction not in ("both", "ingress", "egress"):
            raise ValueError(
                f"direction must be 'both', 'ingress' or 'egress', "
                f"got {direction!r}"
            )
        events: list[RateEvent] = []
        for p in ports:
            events.append(
                RateEvent(
                    time=time,
                    port=p,
                    egress=0.0 if direction in ("both", "egress") else None,
                    ingress=0.0 if direction in ("both", "ingress") else None,
                )
            )
            if recover_at is not None:
                if recover_at <= time:
                    raise ValueError("recover_at must be after the failure time")
                events.append(
                    RateEvent(
                        time=recover_at,
                        port=p,
                        egress=float(fabric.egress_rates[p])
                        if direction in ("both", "egress")
                        else None,
                        ingress=float(fabric.ingress_rates[p])
                        if direction in ("both", "ingress")
                        else None,
                    )
                )
        return cls(events=events)
