"""Self-contained discrete-event simulation kernel.

Public surface:

* :class:`~repro.sim.core.Environment` and the event/process machinery,
* the exclusive :class:`~repro.sim.resources.Server` (the CPU, PCI
  bus, memory bus and wire schedule through it, busy time included) and
  the :class:`~repro.sim.resources.Store` buffer in
  :mod:`repro.sim.resources`,
* deterministic RNG streams (pure-Python PCG64) in :mod:`repro.sim.rng`.

Tallies live in the cluster :class:`~repro.obs.MetricsRegistry` or in a
component's plain :class:`collections.Counter`.
"""

from .. import _lazy_exports
from .core import (
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    TimerHandle,
    profiled,
)
from .resources import Server, Store
from .rng import Pcg64, RngStreams

#: the hybrid flow engine, imported when a cluster runs ``flow_mode="auto"``
_LAZY = {"flowmode": ("FlowModeController", "FlowRoute")}
__getattr__, __dir__ = _lazy_exports(globals(), _LAZY)

__all__ = [
    "Environment",
    "Event",
    "FlowModeController",
    "FlowRoute",
    "Interrupt",
    "Pcg64",
    "Process",
    "RngStreams",
    "Server",
    "SimulationError",
    "Store",
    "Timeout",
    "TimerHandle",
    "profiled",
]
