"""Pipeline timeline — reproduces Figure 7.

Figure 7 shows where the microseconds go for a single 1400-byte packet
crossing the CLIC pipeline: sender syscall + CLIC_MODULE + driver, wire
flight, receiver driver-interrupt stage (the dominant ~15 µs), bottom
halves -> CLIC_MODULE, and the copy into user memory.

:func:`fig7_timeline` derives those stages from the packet's critical
path (:func:`repro.obs.critical_path`), the one place trace anchors are
looked up: each stage is a contiguous run of path hops, from its first
hop's start to its last hop's end.  The path's ``direct`` flag picks
the stage list — the stock bottom-half path (a) or the Figure 8(b)
direct driver→CLIC_MODULE call (b), which has no bottom-half stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..obs import CriticalPath

__all__ = [
    "Stage",
    "PacketTimeline",
    "fig7_timeline",
]

_SENDER = ("sender: syscall + CLIC_MODULE + driver",
           ("syscall entry", "CLIC_MODULE tx + copy", "driver tx call"))
_FLIGHT = ("NIC DMA + flight",
           ("NIC DMA + serialize", "flight + switch", "NIC rx buffer",
            "interrupt coalescing"))
_IRQ_HOPS = ("irq entry", "NIC->system copy")

#: Figure 7(a) stages as (title, critical-path hops), in path order
_STAGES_STOCK = (
    _SENDER,
    _FLIGHT,
    ("receiver: driver interrupt (NIC->system copy)", _IRQ_HOPS),
    ("bottom halves -> CLIC_MODULE", ("bottom halves", "CLIC_MODULE rx + demux")),
    ("CLIC_MODULE copy to user + wake", ("CLIC_MODULE copy to user", "wake + reschedule")),
)

#: Figure 7(b) stages: the direct call folds module rx, copy and wake
#: into one post-interrupt stage
_STAGES_DIRECT = (
    _SENDER,
    _FLIGHT,
    ("receiver: driver interrupt (direct DMA)", _IRQ_HOPS),
    ("CLIC_MODULE direct call + copy + wake",
     ("bottom halves", "CLIC_MODULE rx + demux", "CLIC_MODULE copy to user",
      "wake + reschedule")),
)


@dataclass
class Stage:
    """One labeled interval of the pipeline."""

    name: str
    start_ns: float
    end_ns: float

    @property
    def duration_us(self) -> float:
        return (self.end_ns - self.start_ns) / 1000

    def __repr__(self) -> str:
        return f"{self.name}: {self.duration_us:.2f} us"


@dataclass
class PacketTimeline:
    """The full pipeline breakdown of one packet."""

    packet_id: int
    stages: List[Stage]

    @property
    def total_us(self) -> float:
        return (self.stages[-1].end_ns - self.stages[0].start_ns) / 1000

    def stage(self, name: str) -> Stage:
        """Return the stage named ``name`` (KeyError if absent)."""
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(f"no stage {name!r} (have {[s.name for s in self.stages]})")


def fig7_timeline(path: CriticalPath) -> PacketTimeline:
    """Regroup a critical path's hops into the Figure-7 stages.

    Stage boundaries are hop boundaries (no durations are summed), so
    the stages tile the path exactly.  Raises :class:`KeyError` for a
    hop no stage claims.
    """
    stage_of: Dict[str, str] = {
        hop: title
        for title, hops in (_STAGES_DIRECT if path.direct else _STAGES_STOCK)
        for hop in hops
    }
    stages: List[Stage] = []
    for seg in path.segments:
        title = stage_of.get(seg.name)
        if title is None:
            raise KeyError(f"hop {seg.name!r} has no Figure-7 stage")
        if stages and stages[-1].name == title:
            stages[-1].end_ns = seg.end_ns
        else:
            stages.append(Stage(title, seg.start_ns, seg.end_ns))
    return PacketTimeline(packet_id=path.packet_id, stages=stages)
