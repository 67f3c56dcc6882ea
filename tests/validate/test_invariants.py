"""Unit tests for the invariant catalog over fabricated run records.

Each test takes the smallest internally-consistent record (see
``conftest.make_record``), breaks exactly one fact, and asserts the
matching invariant — and only it — fires.
"""

import pytest

from repro.validate import INVARIANTS, Violation, check_run
from repro.validate.scenario import FOREVER_NS

from .conftest import _link, make_sender_state


def ids(violations):
    return [v.invariant for v in violations]


def test_clean_record_passes_whole_catalog(clean_record):
    assert check_run(clean_record) == []


def test_catalog_is_stable():
    assert len(INVARIANTS) == 13
    assert len(set(INVARIANTS)) == len(INVARIANTS)


def test_violation_round_trips():
    v = Violation("rto.karn", "0->1", "sampled seq 3 after retransmit")
    assert Violation.from_dict(v.to_dict()) == v


# ---------------------------------------------------------------------------
# delivery.exactly_once_in_order
# ---------------------------------------------------------------------------
def test_delivery_reordered(record_factory):
    record = record_factory()
    ch = record["channels"]["0->1"]
    ch["attempted"] = ch["sent"] = [[0, 1000], [1, 500]]
    ch["received"] = [[1, 500], [0, 1000]]
    record["modules"]["0"].update(msgs_sent=2, bytes_sent=1500)
    record["modules"]["1"].update(msgs_rx=2, bytes_rx=1500)
    assert ids(check_run(record)) == ["delivery.exactly_once_in_order"]


def test_delivery_duplicated(record_factory):
    record = record_factory()
    record["channels"]["0->1"]["received"] = [[0, 1000], [0, 1000]]
    assert "delivery.exactly_once_in_order" in ids(check_run(record))


def test_delivery_lost(record_factory):
    record = record_factory()
    record["channels"]["0->1"]["received"] = []
    assert "delivery.exactly_once_in_order" in ids(check_run(record))


def test_delivery_sent_not_prefix_of_attempted(record_factory):
    record = record_factory()
    record["channels"]["0->1"]["sent"] = [[9, 1]]
    assert "delivery.exactly_once_in_order" in ids(check_run(record))


def test_failed_channel_must_deliver_a_prefix(record_factory):
    record = record_factory()
    scenario = record["scenario"]
    scenario["fault_kind"] = "outage"
    scenario["fault_args"] = {"start_ns": 1.0, "duration_ns": FOREVER_NS, "node": 1}
    ch = record["channels"]["0->1"]
    ch["sender"]["failed"] = True
    ch["sender"]["in_flight"] = 1
    ch["sender"]["next_seq"] = 2
    ch["sender"]["registered"] = 2
    ch["attempted"] = ch["sent"] = [[0, 1000], [1, 500]]
    record["dead_peers"] = {"0": {"1": "no ack"}}
    record["modules"]["0"] = {
        "msgs_sent": 2, "bytes_sent": 1500, "msgs_rx": 0, "bytes_rx": 0}

    ch["received"] = [[0, 1000]]  # strict prefix: fine
    assert check_run(record) == []

    ch["received"] = [[1, 500]]  # not a prefix: the receiver skipped ahead
    assert "delivery.exactly_once_in_order" in ids(check_run(record))


# ---------------------------------------------------------------------------
# delivery.exactly_once / delivery.in_order (channel-sequence level)
# ---------------------------------------------------------------------------
def test_seq_delivered_twice(record_factory):
    record = record_factory()
    rx = record["channels"]["0->1"]["receiver"]
    rx["delivered_seqs"] = [0, 1, 1]
    rx["delivered"] = 3
    rx["expected"] = 2
    rx["acks_emitted"] = [2]
    got = ids(check_run(record))
    assert "delivery.exactly_once" in got
    assert "delivery.in_order" in got  # a repeat also regresses the order


def test_seq_delivered_out_of_order(record_factory):
    record = record_factory()
    rx = record["channels"]["0->1"]["receiver"]
    rx["delivered_seqs"] = [1, 0]
    rx["delivered"] = 2
    rx["expected"] = 2
    rx["acks_emitted"] = [2]
    got = ids(check_run(record))
    assert "delivery.in_order" in got
    assert "delivery.exactly_once" not in got


def test_gappy_but_increasing_seqs_pass_in_order(record_factory):
    """Order and uniqueness are judged, not contiguity — a failed
    channel legitimately delivers a prefix with later seqs missing."""
    record = record_factory()
    rx = record["channels"]["0->1"]["receiver"]
    rx["delivered_seqs"] = [0]
    assert check_run(record) == []


def test_record_without_delivered_seqs_skips_the_rules(record_factory):
    record = record_factory()
    del record["channels"]["0->1"]["receiver"]["delivered_seqs"]
    assert check_run(record) == []


# ---------------------------------------------------------------------------
# memory.bounded
# ---------------------------------------------------------------------------
def test_stash_overran_its_limit(record_factory):
    record = record_factory()
    rx = record["channels"]["0->1"]["receiver"]
    rx["max_stash"] = 65
    rx["stash_limit"] = 64
    assert ids(check_run(record)) == ["memory.bounded"]


def test_stash_at_limit_is_legal(record_factory):
    record = record_factory()
    rx = record["channels"]["0->1"]["receiver"]
    rx["max_stash"] = 64
    rx["stash_limit"] = 64
    assert check_run(record) == []


def test_switch_queue_overran_capacity(record_factory):
    record = record_factory()
    record["frames"]["switch"]["max_queue_depth"] = 513
    assert ids(check_run(record)) == ["memory.bounded"]


def test_nic_rx_buffer_overran_ring(record_factory):
    record = record_factory()
    record["frames"]["nic"]["rx_buffer_peak"] = 257
    assert ids(check_run(record)) == ["memory.bounded"]


def test_memory_bounds_checked_even_when_unconverged(record_factory):
    record = record_factory()
    record["procs_unfinished"] = [{"name": "fuzz-tx0", "node": 0, "role": "tx"}]
    record["frames"]["switch"]["max_queue_depth"] = 513
    got = ids(check_run(record))
    assert "memory.bounded" in got
    assert "sim.convergence" in got


# ---------------------------------------------------------------------------
# delivery.bytes_conserved
# ---------------------------------------------------------------------------
def test_module_counter_disagrees_with_journal(record_factory):
    record = record_factory()
    record["modules"]["0"]["bytes_sent"] = 999
    assert ids(check_run(record)) == ["delivery.bytes_conserved"]


def test_phantom_receive_counted(record_factory):
    record = record_factory()
    record["modules"]["1"]["msgs_rx"] = 2
    assert ids(check_run(record)) == ["delivery.bytes_conserved"]


# ---------------------------------------------------------------------------
# acks.monotone
# ---------------------------------------------------------------------------
def test_ack_regression_at_sender(record_factory):
    record = record_factory()
    sender = record["channels"]["0->1"]["sender"]
    sender["events"] = [["register", 0], ["ack", 0, 1], ["ack", 1, 1]]
    assert "acks.monotone" in ids(check_run(record))


def test_ack_skips_base(record_factory):
    record = record_factory()
    sender = record["channels"]["0->1"]["sender"]
    sender["events"] = [["register", 0], ["ack", 5, 6]]
    assert "acks.monotone" in ids(check_run(record))


def test_final_base_mismatch(record_factory):
    record = record_factory()
    record["channels"]["0->1"]["sender"]["events"] = [["register", 0]]
    assert "acks.monotone" in ids(check_run(record))


def test_receiver_acks_go_backwards(record_factory):
    record = record_factory()
    record["channels"]["0->1"]["receiver"]["acks_emitted"] = [1, 0]
    assert "acks.monotone" in ids(check_run(record))


def test_receiver_acks_beyond_frontier(record_factory):
    record = record_factory()
    record["channels"]["0->1"]["receiver"]["acks_emitted"] = [2]
    assert "acks.monotone" in ids(check_run(record))


def test_sender_base_overtakes_receiver(record_factory):
    record = record_factory()
    record["channels"]["0->1"]["receiver"]["expected"] = 0
    record["channels"]["0->1"]["receiver"]["acks_emitted"] = []
    assert "acks.monotone" in ids(check_run(record))


# ---------------------------------------------------------------------------
# channel.bookkeeping / window.respected
# ---------------------------------------------------------------------------
def test_window_ledger_imbalance(record_factory):
    record = record_factory()
    record["channels"]["0->1"]["sender"]["in_flight"] = 3
    violations = ids(check_run(record))
    assert "channel.bookkeeping" in violations
    # in_flight > 0 without failure also means the run never drained
    assert "sim.convergence" in violations


def test_registration_count_mismatch(record_factory):
    record = record_factory()
    record["channels"]["0->1"]["sender"]["registered"] = 7
    assert "channel.bookkeeping" in ids(check_run(record))


def test_window_overshoot(record_factory):
    record = record_factory()
    record["channels"]["0->1"]["sender"]["window_violations"] = [[65, 64]]
    assert ids(check_run(record)) == ["window.respected"]


# ---------------------------------------------------------------------------
# rto.karn / rto.bounds
# ---------------------------------------------------------------------------
def test_karn_rtt_after_retransmit(record_factory):
    record = record_factory()
    record["channels"]["0->1"]["sender"]["events"] = [
        ["register", 0],
        ["retx", "rto", [0]],
        ["rtt", 0, 9_000.0],
        ["ack", 0, 1],
    ]
    assert ids(check_run(record)) == ["rto.karn"]


def test_karn_fast_retransmit_counts_too(record_factory):
    record = record_factory()
    record["channels"]["0->1"]["sender"]["events"] = [
        ["register", 0],
        ["retx", "fast", [0]],
        ["rtt", 0, 9_000.0],
        ["ack", 0, 1],
    ]
    assert ids(check_run(record)) == ["rto.karn"]


def test_rtt_before_retransmit_is_legal(record_factory):
    record = record_factory()
    record["channels"]["0->1"]["sender"]["events"] = [
        ["register", 0],
        ["rtt", 0, 9_000.0],
        ["retx", "rto", [0]],
        ["ack", 0, 1],
    ]
    assert check_run(record) == []


def test_rto_shrinks_on_timeout(record_factory):
    record = record_factory()
    record["channels"]["0->1"]["sender"]["events"].insert(
        1, ["timeout", 20_000.0, 10_000.0, 1_000_000.0])
    assert ids(check_run(record)) == ["rto.bounds"]


def test_rto_exceeds_cap(record_factory):
    record = record_factory()
    record["channels"]["0->1"]["sender"]["events"].insert(
        1, ["timeout", 20_000.0, 2_000_000.0, 1_000_000.0])
    assert ids(check_run(record)) == ["rto.bounds"]


# ---------------------------------------------------------------------------
# peer_death.convergence
# ---------------------------------------------------------------------------
def test_failure_under_transient_fault_is_a_bug(record_factory):
    record = record_factory()
    record["scenario"]["fault_kind"] = "uniform"
    record["scenario"]["fault_rate"] = 0.1
    ch = record["channels"]["0->1"]
    ch["sender"]["failed"] = True
    ch["received"] = []
    record["dead_peers"] = {"0": {"1": "no ack"}}
    got = ids(check_run(record))
    # failed channel + dead peer, both under a survivable fault
    assert got.count("peer_death.convergence") == 2


def test_failure_not_crossing_fault_node(record_factory):
    record = record_factory()
    record["scenario"]["fault_kind"] = "outage"
    record["scenario"]["fault_args"] = {
        "start_ns": 1.0, "duration_ns": FOREVER_NS, "node": 3}
    ch = record["channels"]["0->1"]
    ch["sender"]["failed"] = True
    ch["received"] = []
    record["dead_peers"] = {"0": {"1": "no ack"}}
    got = ids(check_run(record))
    assert got.count("peer_death.convergence") == 2


def test_failed_sender_without_dead_peer_declaration(record_factory):
    record = record_factory()
    record["scenario"]["fault_kind"] = "outage"
    record["scenario"]["fault_args"] = {
        "start_ns": 1.0, "duration_ns": FOREVER_NS, "node": 1}
    ch = record["channels"]["0->1"]
    ch["sender"]["failed"] = True
    ch["received"] = []
    assert "peer_death.convergence" in ids(check_run(record))


# ---------------------------------------------------------------------------
# sim.convergence (and its gating of frames.conserved)
# ---------------------------------------------------------------------------
def test_unfinished_process(record_factory):
    record = record_factory()
    record["procs_unfinished"] = [{"name": "fuzz-tx0", "node": 0, "role": "tx"}]
    assert ids(check_run(record)) == ["sim.convergence"]


def test_receiver_cut_off_by_failed_channel_may_block(record_factory):
    record = record_factory()
    record["scenario"]["fault_kind"] = "outage"
    record["scenario"]["fault_args"] = {
        "start_ns": 1.0, "duration_ns": FOREVER_NS, "node": 1}
    ch = record["channels"]["0->1"]
    ch["sender"]["failed"] = True
    ch["received"] = []
    record["modules"]["1"].update(msgs_rx=0, bytes_rx=0)
    record["dead_peers"] = {"0": {"1": "no ack"}}
    record["procs_unfinished"] = [{"name": "fuzz-rx1", "node": 1, "role": "rx"}]
    assert check_run(record) == []


def test_frames_not_judged_while_unconverged(record_factory):
    record = record_factory()
    record["procs_unfinished"] = [{"name": "fuzz-tx0", "node": 0, "role": "tx"}]
    record["frames"]["nic"]["tx_frames"] = 99  # would violate frames.conserved
    assert ids(check_run(record)) == ["sim.convergence"]


# ---------------------------------------------------------------------------
# frames.conserved
# ---------------------------------------------------------------------------
def test_link_bookkeeping_broken(record_factory):
    record = record_factory()
    record["frames"]["links"]["0.0.up"]["frames_lost"] = 1  # offered stays 1
    got = ids(check_run(record))
    assert "frames.conserved" in got


def test_frame_vanishes_between_nic_and_wire(record_factory):
    record = record_factory()
    record["frames"]["nic"]["tx_frames"] = 3
    assert ids(check_run(record)) == ["frames.conserved"]


def test_switch_forwarded_mismatch(record_factory):
    record = record_factory()
    record["frames"]["switch"]["forwarded"] = 1
    got = ids(check_run(record))
    assert got and set(got) == {"frames.conserved"}


def test_unknown_destination_is_a_wiring_bug(record_factory):
    record = record_factory()
    record["frames"]["switch"]["unknown_dst"] = 1
    assert "frames.conserved" in ids(check_run(record))


def test_duplicated_frames_balance(record_factory):
    """Conservation holds *net of counted duplicates*: an extra copy on
    the wire is fine as long as the link counted it."""
    record = record_factory()
    record["frames"]["links"]["1.0.down"] = _link(2, duplicated=1)
    record["frames"]["nic"]["rx_frames"] = 3
    assert check_run(record) == []


def test_uncounted_duplicate_is_a_violation(record_factory):
    record = record_factory()
    # an extra copy was delivered but frames_duplicated never moved
    record["frames"]["links"]["1.0.down"]["frames"] = 2
    assert "frames.conserved" in ids(check_run(record))


def test_lost_frames_are_conserved_not_violations(record_factory):
    """A lossy-but-converged run balances: loss shows up in the lost
    column of the link and the switch chain, not as a violation."""
    record = record_factory()
    links = record["frames"]["links"]
    # one extra data attempt that the wire ate, then a successful retx
    links["0.0.up"] = {"frames_offered": 2, "frames": 1, "frames_lost": 1}
    record["frames"]["nic"]["tx_frames"] = 3
    record["channels"]["0->1"]["sender"]["events"] = [
        ["register", 0],
        ["retx", "rto", [0]],
        ["ack", 0, 1],
    ]
    assert check_run(record) == []
