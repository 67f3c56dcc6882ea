"""Fixtures for the invariant-harness tests: fabricated run records.

``clean_record`` builds the smallest internally-consistent run record —
one 1000-byte message over ``0->1``, one data frame and one ack frame
per direction, balanced counters everywhere — that the full invariant
catalog passes.  Individual tests then break exactly one fact and
assert exactly the right invariant fires.
"""

import copy

import pytest

from repro.validate import Message, Scenario


def make_sender_state(**overrides):
    state = {
        "name": "clic0->1",
        "next_seq": 1,
        "base": 1,
        "in_flight": 0,
        "failed": False,
        "registered": 1,
        "max_in_flight": 1,
        "window_violations": [],
        "events": [
            ["register", 0],
            ["rtt", 0, 12_000.0],
            ["ack", 0, 1],
        ],
    }
    state.update(overrides)
    return state


def make_receiver_state(**overrides):
    state = {
        "name": "clic0->1",
        "expected": 1,
        "delivered": 1,
        "delivered_seqs": [0],
        "max_stash": 0,
        "stash_limit": 64,
        "acks_emitted": [1],
    }
    state.update(overrides)
    return state


def make_record(**overrides):
    scenario = Scenario(seed=11, messages=(Message(0, 1, 1000, 0),))
    record = {
        "scenario": scenario.to_dict(),
        "channels": {
            "0->1": {
                "sender": make_sender_state(),
                "receiver": make_receiver_state(),
                "attempted": [[0, 1000]],
                "sent": [[0, 1000]],
                "received": [[0, 1000]],
            }
        },
        "frames": {
            "links": {
                "0.0.up": _link(1),    # the data frame
                "1.0.up": _link(1),    # the ack frame
                "0.0.down": _link(1),  # ack delivered to node 0
                "1.0.down": _link(1),  # data delivered to node 1
            },
            "nic": {"tx_frames": 2, "rx_frames": 2,
                    "rx_oversize_drops": 0, "rx_drops": 0,
                    "rx_buffer_peak": 1, "rx_ring_slots": 256},
            "switch": {"forwarded": 2, "drops": 0, "blackout_drops": 0,
                       "unknown_dst": 0, "hairpin_dropped": 0,
                       "pause_events": 0, "pause_time_ns": 0.0,
                       "max_queue_depth": 1, "queue_capacity": 512},
        },
        "final_now": 5_000_000.0,
        "procs_unfinished": [],
        "dead_peers": {},
        "modules": {
            "0": {"msgs_sent": 1, "bytes_sent": 1000, "msgs_rx": 0, "bytes_rx": 0},
            "1": {"msgs_sent": 0, "bytes_sent": 0, "msgs_rx": 1, "bytes_rx": 1000},
        },
    }
    record.update(overrides)
    return record


def _link(frames, lost=0, duplicated=0):
    return {
        "frames_offered": frames + lost - duplicated,
        "frames": frames,
        "frames_lost": lost,
        "frames_duplicated": duplicated,
    }


@pytest.fixture
def clean_record():
    return make_record()


@pytest.fixture
def record_factory():
    """Deep-copying factory so tests can mutate freely."""

    def make(**overrides):
        return copy.deepcopy(make_record(**overrides))

    return make
