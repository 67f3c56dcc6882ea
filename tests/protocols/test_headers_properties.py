"""Property tests: fragmentation round-trips for every wire format.

Seeded-random message sizes × MTUs must fragment (via the shared
:func:`~repro.protocols.headers.fragment_plan`) and reassemble back to
the original payload for each packet family that fragments —
ClicPacket, GammaPacket, ViaPacket — and for TcpSegment's byte-stream
segmentation; ``is_last_fragment`` must hold for exactly one fragment
per message, and it must be the final one.

The plan is checked on its tuples for every size and fragment
capacity.  Packets are built from it only where a fragment holds more
than one byte: at ``frag_max=1`` that would be one object per byte of a
message of up to 60,000 B, and the packet fields only copy the plan.
"""

from itertools import accumulate

import pytest

from repro.protocols.headers import (
    ClicPacket,
    ClicPacketType,
    GammaPacket,
    TcpSegment,
    ViaPacket,
    fragment_plan,
)

#: user bytes per frame for the MTUs the paper evaluates, minus
#: representative header overheads (CLIC: 14 eth + 12 clic).
FRAG_MAXES = [1500 - 26, 9000 - 26, 1, 7, 8973]


def _random_sizes(rng, count=40):
    exact = [0, 1, 1474, 1475, 2948, 8974, 9000]
    drawn = [int(rng.integers(0, 60_000)) for _ in range(count)]
    return exact + drawn


def _check_plan(plan, nbytes, frag_max):
    """The plan's fragments are contiguous, in order, cover the message
    exactly once, fit ``frag_max``, are as few as possible, and exactly
    one of them — the final one — reaches the message's end."""
    offsets = [off for off, _ in plan]
    frags = [frag for _, frag in plan]
    ends = list(accumulate(frags))
    assert offsets == [0] + ends[:-1]
    assert ends[-1] == nbytes
    assert 0 <= min(frags) and max(frags) <= frag_max
    # ends never decrease, so only the final fragment is a last fragment
    assert len(ends) == 1 or ends[-2] < nbytes
    # ceil(nbytes / frag_max), with one (empty) fragment for the zero-byte message
    assert len(plan) == max(1, -(-nbytes // frag_max))


def _make_clic(offset, frag, nbytes):
    return ClicPacket(
        ptype=ClicPacketType.DATA, src_node=0, dst_node=1, port=5,
        msg_id=1, seq=0, frag_offset=offset, frag_bytes=frag, msg_bytes=nbytes,
    )


def _make_gamma(offset, frag, nbytes):
    return GammaPacket(
        src_node=0, dst_node=1, port=5, msg_id=1,
        frag_offset=offset, frag_bytes=frag, msg_bytes=nbytes,
    )


def _make_via(offset, frag, nbytes):
    return ViaPacket(
        src_node=0, dst_node=1, vi_id=3, msg_id=1,
        frag_offset=offset, frag_bytes=frag, msg_bytes=nbytes,
    )


@pytest.mark.parametrize("make", [_make_clic, _make_gamma, _make_via],
                         ids=["clic", "gamma", "via"])
@pytest.mark.parametrize("frag_max", FRAG_MAXES)
def test_property_fragment_reassemble_round_trip(seeded_rng, make, frag_max):
    rng = seeded_rng(frag_max)
    for nbytes in _random_sizes(rng):
        plan = list(fragment_plan(nbytes, frag_max))
        _check_plan(plan, nbytes, frag_max)
        if frag_max == 1:
            continue
        pkts = [make(off, frag, nbytes) for off, frag in plan]
        assert [(p.frag_offset, p.frag_bytes) for p in pkts] == plan
        assert all(p.msg_bytes == nbytes for p in pkts)

        # Exactly one last fragment, and it is the final one — the
        # receiver's completion trigger fires exactly once per message.
        last_flags = [p.is_last_fragment for p in pkts]
        assert sum(last_flags) == 1
        assert last_flags[-1]


@pytest.mark.parametrize("frag_max", FRAG_MAXES)
def test_property_tcp_segmentation_round_trip(seeded_rng, frag_max):
    """TCP has no fragment header — the stream is cut into segments whose
    data_bytes must add back up to the original send size."""
    rng = seeded_rng(frag_max)
    for nbytes in _random_sizes(rng):
        plan = list(fragment_plan(nbytes, frag_max))
        _check_plan(plan, nbytes, frag_max)
        if frag_max == 1:
            continue
        segs = [
            TcpSegment(src_node=0, dst_node=1, conn_id=1, seq=i, data_bytes=frag)
            for i, (_, frag) in enumerate(plan)
        ]
        assert sum(s.data_bytes for s in segs) == nbytes
        assert [s.seq for s in segs] == list(range(len(segs)))
        assert all(0 <= s.data_bytes <= frag_max for s in segs)


def test_fragment_plan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        list(fragment_plan(-1, 1474))
    with pytest.raises(ValueError):
        list(fragment_plan(100, 0))
    with pytest.raises(ValueError):
        list(fragment_plan(100, -5))


def test_fragment_plan_zero_byte_message_is_one_empty_fragment():
    assert list(fragment_plan(0, 1474)) == [(0, 0)]
