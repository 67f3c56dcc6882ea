"""Unit tests for SkBuff and BufferPool."""

import pytest

from repro.oskernel import BufferPool, SkBuff, SYSTEM_MEMORY, USER_MEMORY
from repro.sim import Environment


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


def test_pool_try_take_and_give():
    env = Environment()
    pool = BufferPool(env, 1000)
    assert pool.try_take(600)
    assert not pool.try_take(500)
    pool.give(600)
    assert pool.try_take(500)
    assert pool.counters["alloc_denied"] == 1


def test_pool_oversized_request_rejected():
    env = Environment()
    pool = BufferPool(env, 100)
    with pytest.raises(ValueError):
        pool.try_take(200)


def test_pool_blocking_take_waits_for_free():
    env = Environment()
    pool = BufferPool(env, 100)
    log = []

    def hog(env):
        yield from pool.take(100)
        yield env.timeout(50)
        pool.give(100)

    def waiter(env):
        yield env.timeout(1)
        yield from pool.take(80)
        log.append(env.now)

    env.process(hog(env))
    env.process(waiter(env))
    env.run()
    assert log == [50]
    assert pool.in_use == 80


def test_pool_waiters_fifo_no_starvation():
    env = Environment()
    pool = BufferPool(env, 100)
    order = []

    def hog(env):
        yield from pool.take(100)
        yield env.timeout(10)
        pool.give(100)

    def want(env, name, nbytes, delay):
        yield env.timeout(delay)
        yield from pool.take(nbytes)
        order.append(name)
        yield env.timeout(5)
        pool.give(nbytes)

    env.process(hog(env))
    env.process(want(env, "big", 90, 1))
    env.process(want(env, "small", 10, 2))
    env.run()
    # FIFO: big goes first even though small would fit sooner.
    assert order == ["big", "small"]


def test_pool_double_free_detected():
    env = Environment()
    pool = BufferPool(env, 100)
    pool.try_take(50)
    pool.give(50)
    with pytest.raises(RuntimeError):
        pool.give(1)


def test_pool_utilization():
    env = Environment()
    pool = BufferPool(env, 200)
    pool.try_take(50)
    assert pool.utilization() == pytest.approx(0.25)
