"""Central configuration: every cost and capability in one place.

The simulator charges *time* for mechanisms (a syscall, an interrupt, a
memcpy, a PCI transaction).  This module collects all of those constants
into dataclasses, so:

* experiments vary exactly the knobs the paper varies (MTU, 0-copy,
  coalescing, protocol) and nothing else;
* the calibration against the paper's own microbenchmarks is documented
  in one place (:func:`granada2003`).

Calibration sources (all from the paper text):

====================================  ==========================================
paper statement                        parameter(s)
====================================  ==========================================
syscall enter+leave ~= 0.65 us         ``kernel.syscall_enter_ns + syscall_exit_ns``
1.5 GHz PC                             ``cpu.freq_hz``
33 MHz / 32-bit PCI                    ``pci.clock_hz, width_bytes``
PCI 2.1 delays "of microseconds"       ``pci.transaction_setup_ns``
interrupt path ~20 us (Fig 7a)         irq entry + driver rx stage for 1400 B
driver rx stage 15 us @1400 B (Fig7a)  ``driver.rx_per_frame_ns`` + PCI transfer
BH -> CLIC_MODULE stage 2 us (Fig 7a)  ``kernel.bottom_half_dispatch_ns`` +
                                       memcpy of 1400 B at ``memory.copy_bw``
sender ~0.7 + 4 us (Fig 7a)            syscall + ``clic.module_tx_ns`` +
                                       ``driver.tx_call_ns``
direct-call variant ~5 us (Fig 7b)     ``kernel.direct_rx_dispatch`` path
====================================  ==========================================

The *shape* conclusions (CLIC > 2x TCP, half-bandwidth points, jumbo vs
0-copy ordering) are robust to modest changes in these values; the
calibration tests in ``tests/experiments`` check the shapes, not the
absolute microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

__all__ = [
    "CpuParams",
    "MemoryParams",
    "PciParams",
    "LinkParams",
    "NicParams",
    "DriverParams",
    "KernelParams",
    "ClicParams",
    "TcpIpParams",
    "GammaParams",
    "ViaParams",
    "MpiParams",
    "PvmParams",
    "NodeConfig",
    "SimParams",
    "Topology",
    "ClusterConfig",
    "granada2003",
    "MTU_STANDARD",
    "MTU_JUMBO",
]

MTU_STANDARD = 1500
MTU_JUMBO = 9000


@dataclass(frozen=True)
class CpuParams:
    """Host processor."""

    freq_hz: float = 1.5e9
    #: cost of a context switch between user processes
    context_switch_ns: float = 2_000.0
    #: cost of one scheduler pass (run-queue scan + pick)
    scheduler_pass_ns: float = 900.0


@dataclass(frozen=True)
class MemoryParams:
    """Main-memory subsystem as seen by CPU copies."""

    #: sustained CPU memcpy bandwidth, bytes/s.  PC133-era SDRAM moves
    #: ~1 GB/s raw, but a copy transits it ~3x (read src, write-allocate,
    #: write dst), leaving ~300 MB/s of effective memcpy throughput —
    #: this value makes the receive-side copy of a 9000 B frame cost
    #: ~30 us, consistent with the paper's Figure 7 stage budget.
    copy_bw_Bps: float = 300e6
    #: fixed cost per copy call (function call, cache warmup)
    copy_setup_ns: float = 250.0


@dataclass(frozen=True)
class PciParams:
    """The I/O bus — the paper's emerging bottleneck."""

    clock_hz: float = 33e6
    width_bytes: int = 4
    #: fraction of theoretical bandwidth achieved by burst DMA
    dma_efficiency: float = 0.82
    #: per-DMA-transaction arbitration + address-phase cost
    transaction_setup_ns: float = 1_000.0

    @property
    def effective_bw_Bps(self) -> float:
        """Sustained DMA bandwidth over the bus."""
        return self.clock_hz * self.width_bytes * self.dma_efficiency


@dataclass(frozen=True)
class LinkParams:
    """Gigabit Ethernet wire parameters."""

    rate_bps: float = 1e9
    preamble_bytes: int = 8  # preamble + SFD
    ifg_bytes: int = 12  # inter-frame gap
    crc_bytes: int = 4
    mac_header_bytes: int = 14  # dst(6) + src(6) + ethertype(2)
    min_frame_bytes: int = 64  # incl. MAC header + CRC
    #: one-way propagation + switch port latency, ns
    propagation_ns: float = 500.0

    def payload_time_ns(self, payload_bytes: int) -> float:
        """Serialization time of one frame carrying ``payload_bytes``
        (preamble, MAC header, CRC, minimum frame and IFG included) —
        the flow-mode engine's closed-form per-frame wire time."""
        mac_frame = self.mac_header_bytes + payload_bytes + self.crc_bytes
        mac_frame = max(mac_frame, self.min_frame_bytes)
        return (self.preamble_bytes + mac_frame + self.ifg_bytes) * 8 / self.rate_bps * 1e9


@dataclass(frozen=True)
class NicParams:
    """Network interface card capabilities and costs."""

    mtu: int = MTU_STANDARD
    rx_ring_slots: int = 256
    tx_ring_slots: int = 256
    #: NIC firmware per-frame processing (descriptor fetch, DMA setup)
    frame_processing_ns: float = 600.0
    #: on-card transmit FIFO depth (frames): lets host-side DMA overlap
    #: wire serialization, as the store-and-forward NIC buffer does
    tx_fifo_frames: int = 32
    #: scatter/gather DMA from user pages (enables CLIC 0-copy tx)
    supports_sg: bool = True
    supports_jumbo: bool = True
    #: on-NIC fragmentation/reassembly offload (paper: future work)
    supports_fragmentation: bool = False
    #: interrupt coalescing: raise IRQ after this many frames...
    coalesce_frames: int = 8
    #: ...or this much time after the first unannounced frame (drivers of
    #: the era default rx-usecs ~= 10; §2 notes the interval is tunable)
    coalesce_timeout_ns: float = 10_000.0
    #: set False to interrupt on every frame (ABL-COAL)
    coalescing_enabled: bool = True
    #: NIC-resident collective engine: firmware cost to combine/forward
    #: one collective frame on-card (Quadrics/Myrinet-style processors
    #: ran the whole barrier hop in a microsecond or two)
    collective_op_ns: float = 900.0
    #: host cost to post a collective to the NIC through a user-mapped
    #: doorbell page (no syscall — the point of the NIC engine)
    collective_doorbell_ns: float = 800.0

    def effective_mtu(self) -> int:
        """The MTU actually usable (jumbo requires NIC support)."""
        if self.mtu > MTU_STANDARD and not self.supports_jumbo:
            return MTU_STANDARD
        return self.mtu


@dataclass(frozen=True)
class DriverParams:
    """Unmodified vendor NIC driver (CLIC's portability constraint)."""

    #: tx entry: ring descriptor setup, doorbell write
    tx_call_ns: float = 1_300.0
    #: rx per frame inside the IRQ handler: sk_buff alloc + ring refill
    rx_per_frame_ns: float = 2_200.0
    #: fixed IRQ handler prologue/epilogue (beyond kernel irq entry)
    irq_overhead_ns: float = 1_500.0
    #: frames serviced per interrupt before the handler yields — bounding
    #: IRQ work prevents receive livelock (bottom halves must run for the
    #: protocol, and its acks, to make progress)
    rx_budget_per_irq: int = 16


@dataclass(frozen=True)
class KernelParams:
    """Linux 2.4-like kernel mechanics."""

    #: user->kernel mode switch (INT 80h); paper: enter+leave ~ 0.65 us
    syscall_enter_ns: float = 350.0
    syscall_exit_ns: float = 300.0
    #: hardware interrupt entry (vector dispatch, register save)
    irq_entry_ns: float = 1_800.0
    irq_exit_ns: float = 700.0
    #: scheduling a bottom half and dispatching it later
    bottom_half_dispatch_ns: float = 1_200.0
    #: GAMMA-style lightweight trap (no scheduler on return)
    lightweight_syscall_ns: float = 200.0
    #: run the scheduler when returning from a syscall (CLIC does; GAMMA not)
    scheduler_on_syscall_return: bool = True
    #: Figure 8(b) improvement: driver calls the protocol module directly
    #: from the IRQ handler instead of via bottom halves.
    direct_rx_dispatch: bool = False


@dataclass(frozen=True)
class ClicParams:
    """The CLIC protocol proper."""

    header_bytes: int = 12
    #: CLIC_MODULE tx work: compose headers, update SK_BUFF, bookkeeping
    module_tx_ns: float = 1_600.0
    #: CLIC_MODULE rx work per packet: type decode, queue lookup
    module_rx_ns: float = 900.0
    #: transmit directly from user memory via scatter/gather (path 2 of
    #: Figure 1); False falls back to staging through system memory
    #: (1-copy, the Fast Ethernet-era path)
    zero_copy: bool = True
    #: sliding window (frames in flight before blocking for acks); kept
    #: below the rx ring size so a fast sender cannot overrun a receiver
    window_frames: int = 64
    #: acknowledge every k-th frame (piggyback-free explicit acks)
    ack_every: int = 16
    #: delayed-ack hold-off for stream tails / lone packets
    ack_delay_ns: float = 200_000.0
    #: retransmission timer.  Must exceed the worst-case ack turnaround:
    #: under saturation the receiver services a full sender window in IRQ
    #: context before bottom halves (and hence acks) run — era kernels
    #: used >= 200 ms RTOs for the same reason.
    retransmit_timeout_ns: float = 50_000_000.0
    max_retries: int = 10
    #: adapt the RTO from measured RTTs (Jacobson/Karels SRTT/RTTVAR with
    #: Karn's rule and exponential backoff); ``retransmit_timeout_ns``
    #: becomes the *initial* timeout only.
    adaptive_rto: bool = True
    #: floor for the computed RTO — still needs to cover the saturation
    #: ack-turnaround (see retransmit_timeout_ns note above)
    min_rto_ns: float = 5_000_000.0
    #: backoff/estimate ceiling
    max_rto_ns: float = 3_000_000_000.0
    #: duplicate cumulative acks before fast retransmit (0 = off).  An
    #: isolated frame loss is then repaired in ~1 RTT instead of a full
    #: RTO stall; only window-wiping fault bursts still pay the timeout.
    dupack_threshold: int = 3
    #: bounded out-of-order reassembly stash at the receiver (packets
    #: held while waiting for an in-order gap to fill); beyond this the
    #: overrun policy is *drop-newest* (counted as
    #: ``stash_overflow_drops``) so adversarial reordering can never
    #: grow receiver memory without bound
    reorder_stash_frames: int = 64


@dataclass(frozen=True)
class TcpIpParams:
    """The TCP/IP baseline (Linux 2.4-era stack costs)."""

    ip_header_bytes: int = 20
    tcp_header_bytes: int = 20
    #: per-segment tx stack traversal (socket -> TCP -> IP -> route cache
    #: -> dev queue, skb management) — Linux 2.4-era costs
    per_segment_tx_ns: float = 20_000.0
    #: per-segment rx stack traversal (netif_rx -> IP -> TCP demux ->
    #: socket queue + ack bookkeeping); dominated by per-packet work the
    #: paper's Section 2 warns about
    per_segment_rx_ns: float = 50_000.0
    #: software checksum cost per byte, each side (~330 MB/s: a separate
    #: byte-touching pass on uncached data)
    checksum_ns_per_byte: float = 3.0
    #: socket-layer copy between user and kernel buffers (both sides)
    copies_on_tx: int = 1
    copies_on_rx: int = 1
    #: congestion/flow window in segments (large: LAN, no loss)
    window_segments: int = 64
    ack_every: int = 2  # delayed acks
    ack_delay_ns: float = 200_000.0
    #: Linux's minimum RTO of the era (200 ms)
    retransmit_timeout_ns: float = 200_000_000.0
    max_retries: int = 10
    #: adaptive RTO (Jacobson/Karels), as the real stack does
    adaptive_rto: bool = True
    #: Linux clamps the computed RTO to [200 ms, 120 s]
    min_rto_ns: float = 200_000_000.0
    max_rto_ns: float = 120_000_000_000.0
    #: per-connection socket bookkeeping per send/recv call
    socket_call_ns: float = 1_500.0


@dataclass(frozen=True)
class GammaParams:
    """GAMMA-style active-ports comparator (modified driver, lightweight traps)."""

    header_bytes: int = 16
    #: send path cost: lightweight trap + minimal port handling
    port_tx_ns: float = 900.0
    #: rx handled entirely in the (modified) driver IRQ, direct to user
    port_rx_ns: float = 700.0
    zero_copy: bool = True


@dataclass(frozen=True)
class ViaParams:
    """VIA-style user-level comparator (polling, no OS on data path)."""

    header_bytes: int = 16
    #: post a descriptor + doorbell write (uncached PCI write)
    doorbell_ns: float = 800.0
    descriptor_ns: float = 500.0
    #: polling interval of the receiving process
    poll_interval_ns: float = 1_000.0
    #: cost of one poll probe (PCI read is expensive; paper 3.2(b))
    poll_probe_ns: float = 900.0


@dataclass(frozen=True)
class MpiParams:
    """Thin MPI layer costs (LAM/MPICH-era)."""

    #: library overhead per point-to-point call (matching, request mgmt)
    per_call_ns: float = 2_500.0
    #: envelope bytes added to each message
    envelope_bytes: int = 24


@dataclass(frozen=True)
class PvmParams:
    """PVM 3-era layer: pack/unpack staging plus heavier per-call cost."""

    per_call_ns: float = 6_000.0
    envelope_bytes: int = 40
    #: pvm_pack copies the payload into a send buffer (extra memcpy)
    pack_copy: bool = True
    #: fraction of messages routed via the pvmd daemon (extra hop cost);
    #: modeled as added per-message latency
    daemon_detour_ns: float = 25_000.0


@dataclass(frozen=True)
class NodeConfig:
    """Everything needed to build one cluster node."""

    cpu: CpuParams = field(default_factory=CpuParams)
    memory: MemoryParams = field(default_factory=MemoryParams)
    pci: PciParams = field(default_factory=PciParams)
    nic: NicParams = field(default_factory=NicParams)
    driver: DriverParams = field(default_factory=DriverParams)
    kernel: KernelParams = field(default_factory=KernelParams)
    clic: ClicParams = field(default_factory=ClicParams)
    tcp: TcpIpParams = field(default_factory=TcpIpParams)
    gamma: GammaParams = field(default_factory=GammaParams)
    via: ViaParams = field(default_factory=ViaParams)
    #: number of NICs (channel bonding when > 1)
    nic_count: int = 1

    def with_mtu(self, mtu: int) -> "NodeConfig":
        """Copy of this config with the NIC MTU replaced."""
        return replace(self, nic=replace(self.nic, mtu=mtu))

    def with_zero_copy(self, zero_copy: bool) -> "NodeConfig":
        """Copy with CLIC's 0-copy transmit toggled."""
        return replace(self, clic=replace(self.clic, zero_copy=zero_copy))

    def with_coalescing(self, enabled: bool) -> "NodeConfig":
        """Copy with NIC interrupt coalescing toggled."""
        return replace(self, nic=replace(self.nic, coalescing_enabled=enabled))

    def with_direct_rx(self, enabled: bool) -> "NodeConfig":
        """Copy with the Figure 8(b) direct dispatch toggled."""
        return replace(self, kernel=replace(self.kernel, direct_rx_dispatch=enabled))

    def with_nic_count(self, n: int) -> "NodeConfig":
        """Copy with ``n`` NICs (channel bonding when > 1)."""
        return replace(self, nic_count=n)

    def with_fragmentation_offload(self, enabled: bool) -> "NodeConfig":
        """Copy with on-NIC fragmentation toggled."""
        return replace(self, nic=replace(self.nic, supports_fragmentation=enabled))


@dataclass(frozen=True)
class SimParams:
    """Simulator-engine knobs (how the run is computed, not what it models).

    ``flow_mode`` selects the hybrid flow/packet engine
    (:mod:`repro.sim.flowmode`): ``"off"`` simulates every frame
    discretely at every hop — the exactness reference, bit-identical to
    historical artifacts — while ``"auto"`` lets steady-state bulk
    windows advance as analytically batched frame *trains* (per-hop
    serialization, PCI setups, coalescing cadence and counters computed
    closed-form over the batch).  Any protocol-relevant boundary —
    active fault window, switch contention, reorder stash occupancy,
    journey tracing — forces exact per-packet simulation for the
    affected flow, with seamless re-entry.
    """

    #: ``"off"`` (exact, the reference) | ``"auto"`` (hybrid fast path)
    flow_mode: str = "off"


@dataclass(frozen=True)
class Topology:
    """Fabric topology spec (pure data — built by :mod:`repro.hw.fabric`).

    * ``"star"`` — every node on one switch (the legacy layout; a
      ``topology=None`` cluster builds the identical fabric).
    * ``"fat-tree"`` — a 2-level tree: ``ceil(N / leaf_fan)`` leaf
      switches, each with ``uplink_fan`` trunk ports, one per spine
      switch.  Cross-leaf traffic is spread over the spines by
      destination node (``dst % uplink_fan``) so per-uplink contention
      is deterministic and accountable.
    * ``"chain"`` — leaf switches in a line with one trunk between
      neighbours (the worst-case diameter layout).
    """

    kind: str = "star"
    #: nodes per leaf switch (fat-tree and chain)
    leaf_fan: int = 4
    #: trunk ports per leaf == number of spine switches (fat-tree)
    uplink_fan: int = 1

    KINDS = ("star", "fat-tree", "chain")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown topology kind {self.kind!r}")
        if self.leaf_fan < 1:
            raise ValueError(f"leaf_fan must be >= 1, got {self.leaf_fan}")
        if self.uplink_fan < 1:
            raise ValueError(f"uplink_fan must be >= 1, got {self.uplink_fan}")


@dataclass(frozen=True)
class ClusterConfig:
    """A cluster: homogeneous nodes behind one switch."""

    node: NodeConfig = field(default_factory=NodeConfig)
    num_nodes: int = 2
    link: LinkParams = field(default_factory=LinkParams)
    mpi: MpiParams = field(default_factory=MpiParams)
    pvm: PvmParams = field(default_factory=PvmParams)
    seed: int = 2003
    trace: bool = False
    #: attach an event-loop profiler to the Environment (repro.obs.profile)
    profile: bool = False
    #: switch egress-exhaustion policy: ``"drop"`` (tail-drop, counted)
    #: or ``"pause"`` (802.3x-style lossless — the forwarding engine
    #: stalls until the egress queue drains; see repro.hw.switch)
    switch_backpressure: str = "drop"
    #: simulator-engine knobs (flow/packet hybrid fast path)
    sim: SimParams = field(default_factory=SimParams)
    #: fabric layout; ``None`` builds the legacy single-switch star
    topology: Optional[Topology] = None

    def with_node(self, node: NodeConfig) -> "ClusterConfig":
        """Copy of this cluster config with the node config replaced."""
        return replace(self, node=node)

    def with_flow_mode(self, mode: str) -> "ClusterConfig":
        """Copy with the hybrid-engine mode replaced ("off" | "auto")."""
        return replace(self, sim=replace(self.sim, flow_mode=mode))

    def with_topology(self, topology: Optional[Topology]) -> "ClusterConfig":
        """Copy with the fabric topology replaced (None = single switch)."""
        return replace(self, topology=topology)


def pci_66mhz_64bit() -> PciParams:
    """A server-class 66 MHz / 64-bit PCI bus (~430 MB/s effective).

    Used by the channel-bonding ablation: with 33 MHz PCI the I/O bus and
    the CPU-captive receive DMA cap a single node below one NIC's wire
    rate, so a second NIC cannot help; on a 66/64 bus the wire becomes
    the bottleneck and bonding pays off — which is the configuration
    where the paper's §5 bonding feature makes sense.
    """
    return PciParams(clock_hz=66e6, width_bytes=8, dma_efficiency=0.82,
                     transaction_setup_ns=600.0)


def fastethernet2001(num_nodes: int = 2, trace: bool = False, seed: int = 2001) -> ClusterConfig:
    """The *previous* CLIC testbed: Fast Ethernet, first-generation CLIC.

    100 Mb/s links, no jumbo frames, no interrupt coalescing, and the
    1-copy transmit path (§3.1: the Fast Ethernet CLIC staged data into
    a system-memory SK_BUFF before the driver copied it out) — the
    configuration whose measurements motivated this paper's Section 2:
    at 100 Mb/s the *wire* is the bottleneck and the host loafs; at
    1 Gb/s the same software drowns the host.  Used by the FE-2001
    baseline experiment.
    """
    link = LinkParams(rate_bps=100e6)
    nic = NicParams(
        mtu=MTU_STANDARD,
        supports_jumbo=False,
        supports_sg=False,  # FE-era NICs: no scatter/gather from user pages
        coalescing_enabled=False,
    )
    node = NodeConfig(nic=nic).with_zero_copy(False)
    return ClusterConfig(node=node, num_nodes=num_nodes, link=link, trace=trace, seed=seed)


def granada2003(
    mtu: int = MTU_JUMBO,
    zero_copy: bool = True,
    num_nodes: int = 2,
    trace: bool = False,
    seed: int = 2003,
    profile: bool = False,
) -> ClusterConfig:
    """The calibrated testbed of the paper.

    Two PCs (1.5 GHz, 33 MHz/32-bit PCI) with SMC9462TX/3C996-T-class
    Gigabit Ethernet NICs behind a store-and-forward switch; Linux 2.4
    kernel mechanics.  Defaults are the paper's best CLIC configuration
    (jumbo frames, 0-copy, coalesced interrupts).
    """
    node = NodeConfig().with_mtu(mtu).with_zero_copy(zero_copy)
    return ClusterConfig(node=node, num_nodes=num_nodes, trace=trace, seed=seed,
                         profile=profile)
