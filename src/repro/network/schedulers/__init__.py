"""Inter-coflow scheduling disciplines.

Every discipline implements :class:`repro.network.schedulers.base.CoflowScheduler`:
given a :class:`~repro.network.events.SchedulingContext` it returns a rate
(bytes/second) for each active flow, respecting port capacities.

Available disciplines (mirroring CoflowSim's catalogue):

============  =====================================================
``fair``      per-flow max-min fairness (TCP-like baseline)
``fifo``      coflows served in arrival order (MADD within a coflow)
``scf``       shortest (remaining total bytes) coflow first
``ncf``       narrowest (fewest flows) coflow first
``sebf``      Varys: smallest effective bottleneck first + MADD
``dclas``     Aalo: discretized coflow-aware least-attained service
``deadline``  Varys deadline mode: admission control + just-in-time rates
``wss``       Orchestra: size-weighted shuffle scheduling within coflows
``sequential``  strict one-flow-at-a-time worst case (paper Fig. 2(a))
``wcct5``     Shafiee-Ghaderi 5-approx for weighted CCT (permutation + MADD)
``lpcct``     Qiu/Stein/Zhong LP-ordering scheduler (67/3-approx)
============  =====================================================

``wcct5`` and ``lpcct`` carry proven approximation guarantees on the
total *weighted* completion time; :mod:`repro.network.bounds` computes
the matching LP lower bound so any run can report its optimality gap
(see ``ccf tournament``).
"""

from repro.network.scheduler_names import SCHEDULER_NAMES
from repro.network.schedulers.approx import (
    LPOrderingScheduler,
    WeightedApproxScheduler,
)
from repro.network.schedulers.base import CoflowScheduler
from repro.network.schedulers.dclas import DCLASScheduler
from repro.network.schedulers.deadline import DeadlineScheduler
from repro.network.schedulers.fair import FairSharingScheduler
from repro.network.schedulers.ordered import (
    FIFOScheduler,
    NCFScheduler,
    OrderedCoflowScheduler,
    SCFScheduler,
)
from repro.network.schedulers.sebf import SEBFScheduler
from repro.network.schedulers.sequential import SequentialScheduler
from repro.network.schedulers.wss import WSSScheduler

_REGISTRY = {
    "fair": FairSharingScheduler,
    "fifo": FIFOScheduler,
    "scf": SCFScheduler,
    "ncf": NCFScheduler,
    "sebf": SEBFScheduler,
    "dclas": DCLASScheduler,
    "deadline": DeadlineScheduler,
    "sequential": SequentialScheduler,
    "wss": WSSScheduler,
    "wcct5": WeightedApproxScheduler,
    "lpcct": LPOrderingScheduler,
}


def make_scheduler(name: str, **kwargs) -> CoflowScheduler:
    """Instantiate a scheduler by its registry name (see module docstring)."""
    try:
        cls = _REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)


__all__ = [
    "CoflowScheduler",
    "DCLASScheduler",
    "DeadlineScheduler",
    "FIFOScheduler",
    "FairSharingScheduler",
    "LPOrderingScheduler",
    "NCFScheduler",
    "OrderedCoflowScheduler",
    "SCFScheduler",
    "SCHEDULER_NAMES",
    "SEBFScheduler",
    "SequentialScheduler",
    "WSSScheduler",
    "WeightedApproxScheduler",
    "make_scheduler",
]
