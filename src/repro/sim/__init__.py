"""Self-contained discrete-event simulation kernel.

Public surface:

* :class:`~repro.sim.core.Environment` and the event/process machinery,
* queuing resources in :mod:`repro.sim.resources`,
* deterministic RNG streams (pure-Python PCG64) in :mod:`repro.sim.rng`,
* busy-time accounting in :mod:`repro.sim.monitor` (tallies live in
  the cluster :class:`~repro.obs.MetricsRegistry` or in a component's
  plain :class:`collections.Counter`).
"""

from .. import _lazy_exports
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
from .monitor import BusyTracker
from .resources import (
    PriorityResource,
    Request,
    Resource,
    Store,
)
from .rng import Pcg64, RngStreams

#: the hybrid flow engine, imported when a cluster runs ``flow_mode="auto"``
_LAZY = {"flowmode": ("FlowModeController", "FlowRoute")}
__getattr__, __dir__ = _lazy_exports(globals(), _LAZY)

__all__ = [
    "AllOf",
    "AnyOf",
    "BusyTracker",
    "Condition",
    "Environment",
    "Event",
    "FlowModeController",
    "FlowRoute",
    "Interrupt",
    "Pcg64",
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
