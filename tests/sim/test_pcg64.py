"""``Pcg64`` reproduces ``numpy.random.default_rng`` bit for bit.

Every lossy run, fuzz scenario identity and pinned literal draw depends
on the pure-Python generator yielding exactly numpy's stream, so each
method is checked against numpy itself (a test-only dependency here):
seeding through ``SeedSequence``, the PCG64 step, ``random``, the 32-bit
Lemire ``integers`` path with its buffered half-words, ``uniform`` and
``choice``.
"""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Pcg64, RngStreams

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
# three and four 32-bit entropy words: the whole pool, no zero padding
WIDE_SEEDS = [2**64, 2**96 + 12345, 2**128 - 1]

#: spans exercising every branch of the bounded draw: a single value (no
#: draw), small ranges, ones where Lemire's rejection loop runs about
#: half the time, 2**31 - 1, and the full 32-bit range (a bare next32)
SPANS = [1, 2, 3, 7, 9, 1000, 2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]


def _child_seeds():
    """Seeds as ``RngStreams`` derives them, for streams and spawned families."""
    streams = [int.from_bytes(hashlib.sha256(f"7:{name}".encode()).digest()[:8], "little")
               for name in ("loss", "jitter", "scenario.0")]
    return streams + [RngStreams(7).spawn("node3").seed, RngStreams(1).spawn("node0").seed]


def _draw(gen, op, arg):
    """One draw from ``gen``; numpy's scalars come back as Python values."""
    if op == "random":
        return float(gen.random())
    if op == "integers":
        low, span = arg
        return int(gen.integers(low, low + span))
    if op == "uniform":
        return float(gen.uniform(*arg))
    value = gen.choice(arg)
    return type(arg[0])(value)


def _ops(rnd, n):
    ops = []
    for _ in range(n):
        kind = rnd.randrange(5)
        if kind == 0:
            ops.append(("random", None))
        elif kind == 1:
            ops.append(("integers", (rnd.randrange(-3, 4), rnd.choice(SPANS))))
        elif kind == 2:
            # back-to-back full-range draws: both halves of one 64-bit word
            ops += [("integers", (0, 1 << 32))] * rnd.randrange(1, 4)
        elif kind == 3:
            ops.append(("uniform", rnd.choice([(0.005, 0.15), (50_000.0, 2_000_000.0),
                                               (-1.0, 1.0)])))
        else:
            ops.append(("choice", rnd.choice([[0, 1, 64, 1024, 1480, 1500, 9000],
                                              [2.0, 4.0, 8.0], ["drop", "pause"],
                                              [2, 2, 3, 4], [5]])))
    return ops


def _assert_same_stream(seed, ops):
    ours, theirs = Pcg64(seed), np.random.default_rng(seed)
    for i, (op, arg) in enumerate(ops):
        got, want = _draw(ours, op, arg), _draw(theirs, op, arg)
        assert got == want, (seed, i, op, arg, got, want)
    # and the streams are still aligned afterwards, half-word buffer included
    assert [ours.integers(0, 1 << 32) for _ in range(3)] == \
        theirs.integers(0, 1 << 32, 3).tolist()
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("seed", EDGE_SEEDS + WIDE_SEEDS + _child_seeds())
def test_interleaved_sequence_matches_numpy(seed):
    _assert_same_stream(seed, _ops(random.Random(seed), 2000))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       script=st.integers(min_value=0, max_value=2**32))
def test_random_scripts_match_numpy(seed, script):
    _assert_same_stream(seed, _ops(random.Random(script), 200))


def test_return_types_are_plain_python():
    rng = Pcg64(3)
    assert type(rng.random()) is float
    assert type(rng.integers(0, 10)) is int
    assert type(rng.uniform(1.0, 2.0)) is float
    assert rng.choice(["a"]) == "a"


@pytest.mark.parametrize("low, high", [(0, 2**32 + 1), (-1, 2**32), (0, 2**40)])
def test_ranges_wider_than_32_bits_raise(low, high):
    with pytest.raises(ValueError, match="wider than 2\\*\\*32"):
        Pcg64(0).integers(low, high)


@pytest.mark.parametrize("low, high", [(3, 3), (4, 2)])
def test_empty_ranges_raise(low, high):
    with pytest.raises(ValueError):
        Pcg64(0).integers(low, high)


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_seeds_outside_the_entropy_pool_rejected(seed):
    with pytest.raises(ValueError, match="seed"):
        Pcg64(seed)
