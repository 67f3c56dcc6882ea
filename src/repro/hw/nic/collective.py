"""NIC-resident collective engine (Quadrics/Myrinet-style offload).

The paper's CLIC removes the kernel from the per-message data path; the
NIC-based-collectives line of work (PAPERS.md) removes the *host* from
the collective critical path: the NIC firmware recognizes collective
frames, combines or forwards them on-card, and only the final
completion word crosses the PCI bus into host memory.  No IRQ is
raised, no syscall or bottom half runs between a rank's doorbell and
its completion — which is exactly what the tracer-based tests assert.

Model
=====

Each participating NIC owns one :class:`CollectiveEngine`, configured
by the MPI layer with its rank, the world size, and a rank -> MAC
lookup.  All three supported ops run over the same binomial tree of
*virtual* ranks (``vrank = (rank - root) % size``):

* ``barrier``   — contributions combine up the tree; the root releases
  down it.  A rank's completion therefore strictly follows the last
  rank's doorbell.
* ``bcast``     — the root DMAs the payload on-card once and streams it
  down the tree; interior NICs cut through fragment by fragment, then
  DMA the assembled payload to their host.
* ``allreduce`` — payloads combine up (a reduction cannot cut through:
  a parent needs its own and all children's data before forwarding),
  then the fixed-size result broadcasts down.

Data ops fragment to the NIC's effective MTU, so jumbo/standard framing
affects collectives exactly as it does point-to-point traffic.  Costs
charged: a user-level doorbell (CPU + PIO — no kernel crossing), one
payload DMA where the host supplies or receives data, the firmware's
per-frame ``collective_op_ns`` for every combine/forward step, and wire
time through the ordinary tx FIFO / switch-fabric path (collective
frames are regular frames to every switch).

The engine assumes a fault-free fabric: collective frames carry no
sequence numbers and are never retransmitted.  Clusters with fault
plans must keep ``collectives="host"`` (the host algorithms ride the
reliable CLIC/TCP transports).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ...protocols.headers import COLLECTIVE_OPS, ClicCollective, fragment_plan
from ...sim import Event
from ..cpu import PRIO_USER
from .frames import EtherType, Frame

__all__ = ["CollectiveEngine"]

#: PCI bytes of the DMA'd completion word (op id + status)
COMPLETION_BYTES = 8


class _CollState:
    """Per-(op, coll_id) combine/forward state on one NIC."""

    __slots__ = ("op", "coll_id", "root", "nbytes", "completion",
                 "local_posted", "child_frags", "up_sent", "down_frags",
                 "released", "contributions", "done")

    def __init__(self, op: str, coll_id: int, root: int, completion: Event):
        self.op = op
        self.coll_id = coll_id
        self.root = root
        self.nbytes = 0
        self.completion = completion
        self.local_posted = False
        #: fragments received per child vrank (a child's message is
        #: complete when its count reaches the analytic fragment count)
        self.child_frags: Dict[int, int] = {}
        self.up_sent = False
        self.down_frags = 0
        self.released = False
        #: ranks folded into this subtree so far (self counts on post)
        self.contributions = 0
        self.done = False


class CollectiveEngine:
    """Combine-and-forward firmware for one NIC."""

    def __init__(self, nic):
        self.nic = nic
        self.env = nic.env
        self.counters = nic.metrics.tallies(f"{nic.name}.coll")
        self.rank: Optional[int] = None
        self.size = 0
        self.mac_of = None
        self._state: Dict[Tuple[str, int], _CollState] = {}
        self._posts = 0

    def configure(self, rank: int, size: int, mac_of) -> None:
        """(Re)bind the engine to a world: rank, size, rank -> MAC map.

        Rebuilding a world on the same cluster resets post numbering and
        any stale state, so coll_ids stay aligned across ranks.
        """
        self.rank = rank
        self.size = size
        self.mac_of = mac_of
        self._state.clear()
        self._posts = 0

    # ------------------------------------------------------------------
    # binomial-tree geometry (virtual ranks, root rotated to 0)

    def _vrank(self, rank: int, root: int) -> int:
        return (rank - root) % self.size

    def _rank(self, vrank: int, root: int) -> int:
        return (vrank + root) % self.size

    @staticmethod
    def _parent(vrank: int) -> Optional[int]:
        if vrank == 0:
            return None
        return vrank - (vrank & -vrank)

    def _children(self, vrank: int) -> List[int]:
        out = []
        mask = 1
        while mask < self.size:
            if vrank & mask:
                break
            if vrank + mask < self.size:
                out.append(vrank + mask)
            mask <<= 1
        return out

    # ------------------------------------------------------------------
    # framing

    @property
    def _frag_max(self) -> int:
        return self.nic.params.effective_mtu() - ClicCollective.WIRE_BYTES

    def _frag_count(self, nbytes: int) -> int:
        if nbytes <= 0:
            return 1
        return -(-nbytes // self._frag_max)

    def match(self, frame: Frame) -> bool:
        """True for frames this engine consumes (the rx-path hook)."""
        return isinstance(frame.payload, ClicCollective)

    # ------------------------------------------------------------------
    # host-side surface

    def post(self, proc, op: str, nbytes: int = 0, root: int = 0) -> Generator:
        """Post a collective from a user process; yields until complete.

        The doorbell is a user-mapped page write (VIA-style): CPU time
        plus one PIO transaction, **no syscall**.  The returned value
        matches the host algorithms' conventions (barrier -> None,
        bcast -> nbytes, allreduce -> contributions == P).
        """
        if self.rank is None:
            raise RuntimeError(f"{self.nic.name} collective engine not configured")
        if op not in COLLECTIVE_OPS:
            raise ValueError(f"unknown collective op {op!r}")
        coll_id = self._posts
        self._posts += 1
        self.counters["posts"] += 1
        yield from proc.cpu.execute(
            self.nic.params.collective_doorbell_ns, PRIO_USER,
            label="nic_coll_doorbell",
        )
        yield from self.nic.pci.pio(label=f"{self.nic.name}.coll_doorbell")
        state = self._state_for(op, coll_id, root)
        self.env.spawn(
            self._local_post(state, nbytes),
            name=f"{self.nic.name}.coll.post",
        )
        result = yield state.completion
        if op == "barrier":
            return None
        if op == "bcast":
            return state.nbytes
        return result  # allreduce: contributions

    # ------------------------------------------------------------------
    # firmware

    def _state_for(self, op: str, coll_id: int, root: int) -> _CollState:
        key = (op, coll_id)
        state = self._state.get(key)
        if state is None:
            state = _CollState(op, coll_id, root, self.env.event())
            self._state[key] = state
        return state

    def _local_post(self, state: _CollState, nbytes: int) -> Generator:
        """Firmware's view of the doorbell: fetch data, join the tree."""
        yield self.env.timeout(self.nic.params.collective_op_ns)
        vrank = self._vrank(self.rank, state.root)
        fetches = (state.op == "allreduce"
                   or (state.op == "bcast" and vrank == 0))
        if fetches:
            state.nbytes = max(state.nbytes, nbytes)
            yield from self.nic.pci.dma(
                nbytes, priority=2, label=f"{self.nic.name}.coll_fetch")
        state.local_posted = True
        state.contributions += 1
        if state.op == "bcast":
            if vrank == 0:
                yield from self._start_down(state)
            elif state.released:
                # Data fully arrived before the host posted: complete now.
                yield from self._complete(state)
        else:
            yield from self._try_up(state)

    def on_frame(self, frame: Frame) -> None:
        """Rx-path hook: consume one collective frame on-card."""
        self.env.spawn(
            self._handle(frame), name=f"{self.nic.name}.coll.rx")

    def _handle(self, frame: Frame) -> Generator:
        coll: ClicCollective = frame.payload
        # Per-frame firmware cost: descriptor fetch + combine/forward.
        yield self.env.timeout(self.nic.params.frame_processing_ns
                               + self.nic.params.collective_op_ns)
        state = self._state_for(coll.op, coll.coll_id, coll.root)
        state.nbytes = max(state.nbytes, coll.nbytes)
        if coll.phase == "up":
            self.counters["combined"] += 1
            src_vrank = self._vrank(coll.src_rank, coll.root)
            seen = state.child_frags.get(src_vrank, 0) + 1
            state.child_frags[src_vrank] = seen
            if seen == self._frag_count(coll.nbytes):
                state.contributions += coll.contributions
            yield from self._try_up(state)
        else:
            self.counters["forwarded"] += 1
            state.contributions = max(state.contributions, coll.contributions)
            # Cut-through: relay this fragment down before local DMA.
            vrank = self._vrank(self.rank, coll.root)
            for child in self._children(vrank):
                yield from self._send(state, self._rank(child, coll.root),
                                      "down", coll.frag_bytes,
                                      contributions=coll.contributions)
            state.down_frags += 1
            if state.down_frags == self._frag_count(state.nbytes):
                state.released = True
                if state.local_posted or state.op != "bcast":
                    yield from self._complete(state)

    def _try_up(self, state: _CollState) -> Generator:
        """Combine step: send up (or release) once the subtree is in."""
        if state.up_sent or not state.local_posted:
            return
        vrank = self._vrank(self.rank, state.root)
        frags = self._frag_count(state.nbytes)
        for child in self._children(vrank):
            if state.child_frags.get(child, 0) < frags:
                return
        state.up_sent = True
        parent = self._parent(vrank)
        if parent is None:
            yield from self._start_down(state)
            return
        yield from self._send_message(
            state, self._rank(parent, state.root), "up",
            contributions=state.contributions)

    def _start_down(self, state: _CollState) -> Generator:
        """Root: release/broadcast the result down the tree, then
        complete locally (barrier: everyone has arrived by now)."""
        if state.op != "bcast":
            state.contributions = self.size if self.size else 1
        for child in self._children(0):
            yield from self._send_message(
                state, self._rank(child, state.root), "down",
                contributions=state.contributions)
        state.released = True
        yield from self._complete(state)

    def _complete(self, state: _CollState) -> Generator:
        """Deliver the result to the host: payload DMA (data ops, except
        the bcast root which already holds it) plus the completion word."""
        if state.done:
            return
        state.done = True
        vrank = self._vrank(self.rank, state.root)
        delivers = (state.op == "allreduce"
                    or (state.op == "bcast" and vrank != 0))
        if delivers:
            yield from self.nic.pci.dma(
                state.nbytes, priority=2,
                label=f"{self.nic.name}.coll_deliver")
            self.counters["bytes_delivered"] += state.nbytes
        yield from self.nic.pci.dma(
            COMPLETION_BYTES, priority=2,
            label=f"{self.nic.name}.coll_complete")
        self.counters["completions"] += 1
        del self._state[(state.op, state.coll_id)]
        state.completion.succeed(state.contributions)

    # ------------------------------------------------------------------
    # wire side

    def _send_message(self, state: _CollState, dst_rank: int, phase: str,
                      contributions: int) -> Generator:
        """Send a whole (possibly fragmented) hop of ``state.nbytes``."""
        for _offset, frag_bytes in fragment_plan(state.nbytes, self._frag_max):
            yield from self._send(state, dst_rank, phase, frag_bytes,
                                  contributions=contributions)

    def _send(self, state: _CollState, dst_rank: int, phase: str,
              frag_bytes: int, contributions: int = 1) -> Generator:
        coll = ClicCollective(
            op=state.op, phase=phase, coll_id=state.coll_id,
            root=state.root, src_rank=self.rank,
            nbytes=state.nbytes, frag_bytes=frag_bytes,
            contributions=contributions,
        )
        frame = Frame(
            src=self.nic.mac, dst=self.mac_of(dst_rank),
            ethertype=EtherType.CLIC,
            payload_bytes=ClicCollective.WIRE_BYTES + frag_bytes,
            payload=coll,
        )
        # On-card injection: straight into the tx FIFO — no host DMA,
        # no tx ring descriptor, no doorbell.
        yield self.nic._tx_fifo.put(frame)
        self.counters["tx_frames"] += 1
