"""Unit tests for SkBuff."""

import pytest

from repro.oskernel import SkBuff, SYSTEM_MEMORY, USER_MEMORY


def test_skbuff_defaults_to_system_fragment():
    skb = SkBuff(payload_bytes=100)
    assert skb.fragments == [(SYSTEM_MEMORY, 100)]
    assert not skb.is_zero_copy


def test_skbuff_user_payload_is_zero_copy():
    skb = SkBuff.for_user_payload(500)
    assert skb.is_zero_copy
    assert skb.bytes_in(USER_MEMORY) == 500


def test_skbuff_zero_length_not_zero_copy():
    skb = SkBuff.for_user_payload(0)
    assert not skb.is_zero_copy
    assert skb.fragments == []


def test_skbuff_header_stack_accumulates():
    skb = SkBuff.for_user_payload(1000)
    skb.push_header("clic", 12)
    skb.push_header("eth", 14)
    assert skb.header_bytes() == 26
    assert skb.total_bytes() == 1026


def test_skbuff_fragment_mismatch_rejected():
    with pytest.raises(ValueError):
        SkBuff(payload_bytes=100, fragments=[(USER_MEMORY, 50)])


def test_skbuff_negative_sizes_rejected():
    with pytest.raises(ValueError):
        SkBuff(payload_bytes=-1)
    skb = SkBuff(payload_bytes=0)
    with pytest.raises(ValueError):
        skb.push_header("x", -5)


def test_skbuff_relocate_moves_all_bytes():
    skb = SkBuff.for_user_payload(300)
    skb.relocate(SYSTEM_MEMORY)
    assert skb.bytes_in(SYSTEM_MEMORY) == 300
    assert not skb.is_zero_copy
