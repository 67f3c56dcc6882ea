"""Per-layer attribution of host time and events, measured from outside.

Layers are named after ``src/repro`` modules.  :func:`layer_of_file`
maps a source file to its layer and :func:`layer_of_process` maps a
simulation process name to the layer whose code it runs.

:class:`Sampler` is a statistical profiler driven by ``ITIMER_PROF``.
Each sample walks the interrupted Python stack.  *Self* time goes to the
innermost frame that belongs to a layer.  Frames of the standard library
and of builtins have no layer, so their time counts against the layer
frame that called them: ``deepcopy`` called from ``repro.obs`` is obs
time.  *Inclusive* time goes once to every layer with a frame anywhere
on the stack.  A sample with no layer frame on the stack is ``other``.
The signal fires on consumed CPU time, at the kernel's timer tick, so
the real interval can be coarser than the one requested.
"""

from __future__ import annotations

import os
import re
import signal
from collections import Counter
from typing import Dict, Optional

#: relative path under ``src/repro`` (prefix) -> layer; first match wins
FILE_LAYERS = (
    ("sim/flowmode.py", "sim.flowmode"),
    ("sim/", "sim"),
    ("hw/link.py", "hw.link"),
    ("hw/switch.py", "hw.switch"),
    ("hw/fabric.py", "hw.switch"),
    ("hw/nic/collective.py", "hw.nic.collective"),
    ("hw/nic/", "hw.nic"),
    ("hw/pci.py", "hw.pci"),
    ("hw/memory.py", "hw.pci"),
    ("hw/cpu.py", "hw.cpu"),
    ("oskernel/", "oskernel"),
    ("protocols/clic/", "protocols.clic"),
    ("protocols/reliability.py", "protocols.reliability"),
    ("protocols/tcpip/", "protocols.tcpip"),
    ("protocols/", "protocols"),
    ("mpi/", "mpi"),
    ("faults/", "faults"),
    ("obs/", "obs"),
    ("trace.py", "obs"),
    ("analysis/", "obs"),
    ("cluster/", "cluster"),
    ("config.py", "cluster"),
    ("workloads/", "workloads"),
    # package glue and tools no workload runs per event
    ("__init__.py", "other"),
    ("hw/__init__.py", "other"),
    ("units.py", "other"),
    ("parallel.py", "other"),
    ("experiments/", "other"),
    ("perf/", "other"),
    ("pvm/", "other"),
    ("validate/", "other"),
)

LAYERS = ("sim", "sim.flowmode", "hw.link", "hw.switch", "hw.nic", "hw.nic.collective",
          "hw.pci", "hw.cpu", "oskernel", "protocols.clic", "protocols.reliability",
          "protocols.tcpip", "protocols", "mpi", "faults", "obs", "cluster",
          "workloads", "other")

#: process-name pattern -> layer; first match wins
PROCESS_LAYERS = (
    (r".*\.deliver", "hw.link"),
    (r"switch\d*\.(forward|port\d+\.tx)", "hw.switch"),
    (r"node\d+\.nic\d+\.coll\..*", "hw.nic.collective"),
    (r"node\d+\.nic\d+\..*", "hw.nic"),
    (r"node\d+\.kernel\.irq\..*", "oskernel.irq"),
    (r"node\d+\.kernel\.bh\..*", "oskernel.bh"),
    (r"node\d+\.kernel\..*", "oskernel"),
    (r"node\d+\.clic\..*", "protocols.clic"),
    (r"(node\d+\.)?(ip|tcp\d+|udp)\..*", "protocols.tcpip"),
    (r"(node\d+\.)?rank\d+(\.i(send|recv))?", "mpi"),
    (r"faults\..*", "faults"),
    (r"node\d+\.(tx|rx|ping|pong)", "workloads"),
)
_PROCESS_RES = tuple((re.compile(p), layer) for p, layer in PROCESS_LAYERS)

EVENT_LAYERS = tuple(dict.fromkeys(layer for _, layer in PROCESS_LAYERS)) + ("other",)

SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "src", "repro")
#: the benchmark's own point code is the user program: the workloads layer
BENCH_WORKLOADS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.py")


def layer_of_file(relpath: str) -> Optional[str]:
    """Layer of a file given by its path under ``src/repro``, or None."""
    relpath = relpath.replace(os.sep, "/")
    for prefix, layer in FILE_LAYERS:
        if relpath.startswith(prefix):
            return layer
    return None


def layer_of_process(name: str) -> Optional[str]:
    """Layer of a simulation process name, or None when no rule matches."""
    for pattern, layer in _PROCESS_RES:
        if pattern.fullmatch(name):
            return layer
    return None


def events_by_layer(per_process: Dict[str, int]) -> Dict[str, int]:
    """Process resumptions summed per layer; unmatched names go to other."""
    out = dict.fromkeys(EVENT_LAYERS, 0)
    for name, count in per_process.items():
        out[layer_of_process(name) or "other"] += count
    return out


class Sampler:
    """``ITIMER_PROF`` sampler: counts self and inclusive hits per layer.

    Only samples taken while :attr:`active` is true count, so the
    benchmark brackets exactly the work it times.
    """

    def __init__(self, interval_s: float = 0.001):
        self.interval_s = interval_s
        self.active = False
        self.samples = 0
        self.self_hits: Counter = Counter()
        self.incl_hits: Counter = Counter()
        self._layers: Dict[str, Optional[str]] = {}
        self._previous = None

    def _layer(self, filename: str) -> Optional[str]:
        layer = self._layers.get(filename, "")
        if layer == "":
            path = os.path.abspath(filename)
            if path == BENCH_WORKLOADS:
                layer = "workloads"
            elif path.startswith(SRC_ROOT + os.sep):
                layer = layer_of_file(os.path.relpath(path, SRC_ROOT)) or "other"
            else:
                layer = None
            self._layers[filename] = layer
        return layer

    def _on_signal(self, signum, frame) -> None:
        if not self.active:
            return
        self.samples += 1
        innermost, seen = None, set()
        while frame is not None:
            layer = self._layer(frame.f_code.co_filename)
            if layer is not None:
                innermost = innermost or layer
                seen.add(layer)
            frame = frame.f_back
        self.self_hits[innermost or "other"] += 1
        self.incl_hits.update(seen or ("other",))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.active = False

    def shares(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``self`` and ``incl`` shares of all samples."""
        n = max(self.samples, 1)
        return {layer: {"self": self.self_hits[layer] / n, "incl": self.incl_hits[layer] / n}
                for layer in LAYERS}
