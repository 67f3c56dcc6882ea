"""VIA-style user-level networking (comparator, §3.2).

The Virtual Interface Architecture removes the OS from the data path
entirely:

* a **send** is a descriptor written by the application plus a doorbell
  (an uncached PCI write) — no syscall, no kernel;
* a **receive** completes by the NIC DMA-ing into pre-posted user
  buffers and writing a completion-queue entry; the application finds it
  by **polling** — no interrupt (§3.2(b): the paper argues polling
  wastes cycles and, when the poll crosses the I/O bus, hurts bandwidth;
  our poll probes are charged both CPU time and a PCI transaction);
* **no kernel reliability** — "the situation is similar to that of
  UDP/IP" (§3.2(a)); lost frames are simply lost, and our fault-
  injection tests show exactly that.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..config import ViaParams
from ..hw.cpu import PRIO_USER
from ..hw.nic import EtherType, Frame, TxDescriptor
from .headers import Reassembly, ViaPacket, fragment_plan, reassembled

__all__ = ["ViaNic", "VirtualInterface", "ViaMessage"]

_vi_ids = itertools.count(1)
_msg_ids = itertools.count(1)


@dataclass
class ViaMessage:
    src_node: int
    vi_id: int
    nbytes: int
    msg_id: int
    payload: Any = None


class VirtualInterface:
    """One VI: a pair of user-level work queues bound to a peer VI id."""

    def __init__(self, via: "ViaNic", vi_id: int):
        self.via = via
        self.vi_id = vi_id
        #: completed received messages (the completion queue, user memory)
        self.completions: List[ViaMessage] = []

    # -- send: descriptor + doorbell, all from user mode -----------------------
    def send(self, dst_node: int, nbytes: int, payload: Any = None) -> Generator:
        """Post descriptors + doorbells for ``nbytes`` (user mode)."""
        node = self.via.node
        params = self.via.params
        msg_id = next(_msg_ids)
        frag_max = node.mtu() - params.header_bytes
        nic = node.nics[0]
        for offset, frag in fragment_plan(nbytes, frag_max):
            yield from node.cpu.execute(params.descriptor_ns, PRIO_USER, label="via_desc")
            # Doorbell: an uncached write across PCI.
            yield from node.pci.pio(priority=0, label="via_doorbell")
            yield from node.cpu.execute(params.doorbell_ns, PRIO_USER, label="via_bell")
            pkt = ViaPacket(
                src_node=node.node_id,
                dst_node=dst_node,
                vi_id=self.vi_id,
                msg_id=msg_id,
                frag_offset=offset,
                frag_bytes=frag,
                msg_bytes=nbytes,
                payload=payload,
            )
            desc = TxDescriptor(
                dst=node.mac_of(dst_node, 0),
                ethertype=EtherType.VIA,
                payload_bytes=params.header_bytes + frag,
                payload=pkt,
                from_user_memory=True,
            )
            yield nic.post_tx(desc)
        self.via.counters["msgs_sent"] += 1
        return msg_id

    # -- receive: poll the completion queue ------------------------------------
    def recv(self, poll_pci: bool = True) -> Generator:
        """Poll until a message completes; returns it.

        ``poll_pci`` selects the expensive flavour the paper warns about:
        each probe crosses the I/O bus.  With ``False`` only CPU time is
        charged (CQ in cached host memory).
        """
        node = self.via.node
        params = self.via.params
        polls = 0
        while not self.completions:
            yield from node.cpu.execute(params.poll_probe_ns, PRIO_USER, label="via_poll")
            if poll_pci:
                yield from node.pci.pio(priority=9, label="via_poll")
            polls += 1
            yield node.env.timeout(params.poll_interval_ns)
        self.via.counters["poll_probes"] += polls
        return self.completions.pop(0)

    def try_recv(self) -> Optional[ViaMessage]:
        """Single non-waiting CQ check (zero-cost convenience for tests)."""
        return self.completions.pop(0) if self.completions else None


class ViaNic:
    """The VIA provider of one node (requires push-mode NICs)."""

    def __init__(self, node):
        self.node = node
        self.params: ViaParams = node.cfg.via
        self.counters = Counter()
        self._vis: Dict[int, VirtualInterface] = {}
        self._assembling: Dict[Tuple[int, int], Reassembly] = {}
        nic = node.nics[0]
        if nic.rx_deliver != "push":
            raise RuntimeError(
                "VIA needs NIC-managed receive (build the cluster with "
                "protocols=('via',))"
            )
        nic.push_callback = self._on_push

    def create_vi(self, vi_id: Optional[int] = None) -> VirtualInterface:
        """Open a virtual interface (optionally with a fixed id)."""
        if vi_id is None:
            vi_id = next(_vi_ids)
        if vi_id in self._vis:
            raise ValueError(f"VI {vi_id} exists")
        vi = VirtualInterface(self, vi_id)
        self._vis[vi_id] = vi
        return vi

    # -- NIC push: data already in user memory; write the CQ entry -------------
    def _on_push(self, frame: Frame) -> None:
        pkt: ViaPacket = frame.payload
        vi = self._vis.get(pkt.vi_id)
        if vi is None:
            # No receive descriptor posted: VIA drops (counted).
            self.counters["no_vi_drops"] += 1
            return
        key = (pkt.src_node, pkt.msg_id)
        acc = self._assembling.get(key)
        if acc is None:
            acc = self._assembling[key] = Reassembly(msg_bytes=pkt.msg_bytes, payload=pkt.payload)
        acc.received += pkt.frag_bytes
        if not reassembled(acc, pkt):
            return
        del self._assembling[key]
        vi.completions.append(
            ViaMessage(
                src_node=pkt.src_node,
                vi_id=pkt.vi_id,
                nbytes=pkt.msg_bytes,
                msg_id=pkt.msg_id,
                payload=acc.payload,
            )
        )
        self.counters["msgs_rx"] += 1
