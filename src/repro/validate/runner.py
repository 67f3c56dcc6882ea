"""Execute one fuzz scenario and reduce it to a checked run record.

:func:`run_scenario` is the module-level, pure-data worker the fuzzer
fans out via :func:`repro.parallel.run_tasks`: build the cluster the
scenario describes, install a :class:`~repro.validate.probes.ProbeRecorder`
over every reliability channel, drive the scenario's traffic matrix
through real user processes, run to quiescence (or the horizon), and
return ``{scenario, violations, stats}`` with the full invariant
catalog evaluated.

Everything in the report is a deterministic function of the scenario —
no wall-clock, no process ids — so identical scenarios give
byte-identical reports in any worker ordering.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Generator, List, Tuple

from ..cluster import Cluster
from ..config import ClusterConfig, NodeConfig, SimParams, Topology
from ..oskernel import UserProcess
from ..protocols.clic import ClicEndpoint
from ..protocols.reliability import DeliveryFailed, install_channel_probe
from .invariants import check_run
from .probes import ProbeRecorder
from .scenario import HORIZON_NS, Scenario

__all__ = ["run_scenario", "execute"]

#: CLIC port all fuzz traffic rides on
PORT = 1


def _topology_spec(scenario: Scenario):
    """Compile the scenario's topology axis into a :class:`Topology`.

    ``"star"`` maps to ``None`` — the exact legacy single-switch build,
    so pre-topology campaigns replay byte-identically.  The multi-switch
    kinds use ``leaf_fan=1`` so even a 2-node fuzz case genuinely
    crosses trunk links.
    """
    if scenario.topology == "star":
        return None
    if scenario.topology == "fat-tree":
        return Topology("fat-tree", leaf_fan=1, uplink_fan=2)
    if scenario.topology == "chain":
        return Topology("chain", leaf_fan=1)
    raise ValueError(f"unknown topology axis {scenario.topology!r}")


def _node_config(scenario: Scenario) -> NodeConfig:
    node = (
        NodeConfig()
        .with_mtu(scenario.mtu)
        .with_zero_copy(scenario.zero_copy)
        .with_coalescing(scenario.coalescing)
    )
    return replace(node, clic=replace(
        node.clic,
        window_frames=scenario.window_frames,
        ack_every=scenario.ack_every,
        dupack_threshold=scenario.dupack_threshold,
        adaptive_rto=scenario.adaptive_rto,
    ))


class _Journal:
    """App-level traffic log: what each process submitted and observed."""

    def __init__(self) -> None:
        self.attempted: Dict[Tuple[int, int], List[List[int]]] = {}
        self.sent: Dict[Tuple[int, int], List[List[int]]] = {}
        self.received: Dict[Tuple[int, int], List[List[int]]] = {}
        #: ``(name, node_id, role, Process)`` for completion accounting
        self.procs: List[Tuple[str, int, str, Any]] = []

    def log(self, book: Dict, src: int, dst: int, tag: int, nbytes: int) -> None:
        book.setdefault((src, dst), []).append([tag, nbytes])


def _spawn_clic(cluster: Cluster, scenario: Scenario, journal: _Journal) -> None:
    by_src: Dict[int, list] = {}
    expected: Dict[int, int] = {}
    for m in scenario.messages:
        by_src.setdefault(m.src, []).append(m)
        expected[m.dst] = expected.get(m.dst, 0) + 1

    for node in cluster.nodes:
        nid = node.node_id
        to_send = by_src.get(nid, [])
        if to_send:
            proc = UserProcess(node, name=f"fuzz-tx{nid}")

            def tx_body(proc: UserProcess, msgs=to_send) -> Generator:
                ep = ClicEndpoint(proc, PORT)
                for m in msgs:
                    journal.log(journal.attempted, m.src, m.dst, m.tag, m.nbytes)
                    try:
                        yield from ep.send(m.dst, m.nbytes, tag=m.tag)
                    except DeliveryFailed:
                        continue  # channel death is judged from sender state
                    journal.log(journal.sent, m.src, m.dst, m.tag, m.nbytes)

            journal.procs.append((f"fuzz-tx{nid}", nid, "tx", proc.run(tx_body)))
        if expected.get(nid):
            proc = UserProcess(node, name=f"fuzz-rx{nid}")

            def rx_body(proc: UserProcess, count=expected[nid], nid=nid) -> Generator:
                ep = ClicEndpoint(proc, PORT)
                for _ in range(count):
                    msg = yield from ep.recv()
                    journal.log(journal.received, msg.src_node, nid, msg.tag, msg.nbytes)

            journal.procs.append((f"fuzz-rx{nid}", nid, "rx", proc.run(rx_body)))


def _spawn_tcp(cluster: Cluster, scenario: Scenario, journal: _Journal):
    from ..protocols.tcpip import TcpIpStack

    proc_a = UserProcess(cluster.node(0), name="fuzz-tx0")
    proc_b = UserProcess(cluster.node(1), name="fuzz-rx1")
    sock_a, sock_b = TcpIpStack.connect_pair(proc_a, proc_b)
    msgs = list(scenario.messages)

    def tx_body(proc: UserProcess) -> Generator:
        for m in msgs:
            journal.log(journal.attempted, 0, 1, m.tag, m.nbytes)
            try:
                yield from sock_a.send(m.nbytes)
            except DeliveryFailed:
                continue
            journal.log(journal.sent, 0, 1, m.tag, m.nbytes)

    def rx_body(proc: UserProcess) -> Generator:
        for m in msgs:
            got = yield from sock_b.recv(m.nbytes)
            journal.log(journal.received, 0, 1, m.tag, got)

    journal.procs.append(("fuzz-tx0", 0, "tx", proc_a.run(tx_body)))
    journal.procs.append(("fuzz-rx1", 1, "rx", proc_b.run(rx_body)))
    return sock_a, sock_b


def _assemble(
    cluster: Cluster,
    scenario: Scenario,
    recorder: ProbeRecorder,
    journal: _Journal,
    tcp_socks,
) -> Dict[str, Any]:
    channels: Dict[str, Dict[str, Any]] = {}

    def ch(key: str) -> Dict[str, Any]:
        return channels.setdefault(
            key, {"sender": None, "receiver": None,
                  "attempted": [], "sent": [], "received": []}
        )

    if scenario.protocol == "clic":
        for node in cluster.nodes:
            for dst, sender in node.clic._senders.items():
                log = recorder.for_sender(sender)
                if log is not None:
                    ch(f"{node.node_id}->{dst}")["sender"] = log.final_state()
            for src, receiver in node.clic._receivers.items():
                log = recorder.for_receiver(receiver)
                if log is not None:
                    ch(f"{src}->{node.node_id}")["receiver"] = log.final_state()
    else:
        sock_a, sock_b = tcp_socks
        pairs = [("0->1", sock_a.conn.sender, sock_b.conn.receiver),
                 ("1->0", sock_b.conn.sender, sock_a.conn.receiver)]
        for key, sender, receiver in pairs:
            slog = recorder.for_sender(sender)
            rlog = recorder.for_receiver(receiver)
            if slog is not None:
                ch(key)["sender"] = slog.final_state()
            if rlog is not None:
                ch(key)["receiver"] = rlog.final_state()

    for book, field in ((journal.attempted, "attempted"),
                        (journal.sent, "sent"),
                        (journal.received, "received")):
        for (src, dst), entries in book.items():
            ch(f"{src}->{dst}")[field] = entries

    links = {
        name: {c: chan.counters[c] for c in
               ("frames_offered", "frames", "frames_lost", "frames_duplicated")}
        for name, chan in cluster.channels
    }
    nic_totals = {c: 0.0 for c in
                  ("tx_frames", "rx_frames", "rx_oversize_drops", "rx_drops")}
    rx_buffer_peak = 0
    for node in cluster.nodes:
        for nic in node.nics:
            for c in nic_totals:
                nic_totals[c] += nic.counters[c]
            rx_buffer_peak = max(rx_buffer_peak, nic.rx_buffer_peak)
    nic_totals["rx_buffer_peak"] = rx_buffer_peak
    nic_totals["rx_ring_slots"] = cluster.cfg.node.nic.rx_ring_slots
    # Aggregated across the whole fabric: for the star topology this is
    # the single legacy switch, so existing artifacts stay byte-identical.
    switch = {c: cluster.fabric.counter_sum(c) for c in
              ("forwarded", "drops", "blackout_drops", "unknown_dst",
               "hairpin_dropped", "pause_events", "pause_time_ns")}
    switch["max_queue_depth"] = cluster.fabric.max_queue_depth
    switch["queue_capacity"] = cluster.switch.queue_frames

    record: Dict[str, Any] = {
        "scenario": scenario.to_dict(),
        "channels": channels,
        "frames": {"links": links, "nic": nic_totals, "switch": switch},
        "final_now": cluster.env.now,
        "procs_unfinished": [
            {"name": name, "node": node_id, "role": role}
            for name, node_id, role, process in journal.procs
            if process.is_alive
        ],
        "dead_peers": {},
        "modules": {},
    }
    if scenario.protocol == "clic":
        record["dead_peers"] = {
            str(node.node_id): {str(p): r for p, r in node.clic.dead_peers.items()}
            for node in cluster.nodes if node.clic.dead_peers
        }
        record["modules"] = {
            str(node.node_id): {c: node.clic.counters[c] for c in
                                ("msgs_sent", "bytes_sent", "msgs_rx", "bytes_rx")}
            for node in cluster.nodes
        }
    return record


def execute(scenario: Scenario) -> Dict[str, Any]:
    """Run ``scenario`` under the probe and return its raw run record."""
    cfg = ClusterConfig(
        node=_node_config(scenario),
        num_nodes=scenario.num_nodes,
        seed=scenario.seed,
        switch_backpressure=scenario.backpressure,
        sim=SimParams(flow_mode=scenario.flow_mode),
        topology=_topology_spec(scenario),
    )
    recorder = ProbeRecorder()
    previous = install_channel_probe(recorder)
    try:
        cluster = Cluster(
            cfg, protocols=(scenario.protocol,), faults=scenario.fault_plan()
        )
        journal = _Journal()
        tcp_socks = None
        if scenario.protocol == "tcp":
            tcp_socks = _spawn_tcp(cluster, scenario, journal)
        else:
            _spawn_clic(cluster, scenario, journal)
        cluster.env.run(until=HORIZON_NS)
    finally:
        install_channel_probe(previous)
    return _assemble(cluster, scenario, recorder, journal, tcp_socks)


def run_scenario(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Pool-safe worker: scenario dict in, checked report dict out."""
    scenario = Scenario.from_dict(spec)
    record = execute(scenario)
    violations = check_run(record)
    frames = record["frames"]
    return {
        "scenario": spec,
        "violations": [v.to_dict() for v in violations],
        "stats": {
            "final_now_ns": record["final_now"],
            "messages": len(scenario.messages),
            "frames_offered": sum(
                c["frames_offered"] for c in frames["links"].values()
            ),
            "frames_lost": sum(c["frames_lost"] for c in frames["links"].values()),
            "channels": len(record["channels"]),
            "unfinished_procs": len(record["procs_unfinished"]),
        },
    }
