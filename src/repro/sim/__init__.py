"""Self-contained discrete-event simulation kernel.

Public surface:

* :class:`~repro.sim.core.Environment` and the event/process machinery,
* queuing resources in :mod:`repro.sim.resources`,
* deterministic RNG streams in :mod:`repro.sim.rng`,
* counters and busy-time accounting in :mod:`repro.sim.monitor`.
"""

from .core import (
    AllOf,
    AnyOf,
    Condition,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    TimerHandle,
    profiled,
)
from .flowmode import FlowModeController, FlowRoute
from .monitor import BusyTracker, Counters
from .resources import (
    Preempted,
    PreemptiveResource,
    PriorityResource,
    Request,
    Resource,
    Store,
)
from .rng import RngStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "BusyTracker",
    "Condition",
    "Counters",
    "Environment",
    "Event",
    "FlowModeController",
    "FlowRoute",
    "Interrupt",
    "Preempted",
    "PreemptiveResource",
    "PriorityResource",
    "Process",
    "Request",
    "Resource",
    "RngStreams",
    "SimulationError",
    "Store",
    "Timeout",
    "TimerHandle",
    "profiled",
]
