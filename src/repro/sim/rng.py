"""Deterministic random-number streams.

Every stochastic element of a simulation (packet-loss injection, workload
inter-arrival jitter, scheduler tie-breaking noise, ...) draws from its own
named stream so that adding randomness to one subsystem never perturbs
another.  All streams derive from a single root seed, making whole runs
bit-reproducible.

Each stream is a :class:`Pcg64`: a pure-Python PCG64 generator that
reproduces ``numpy.random.default_rng(seed)`` draw for draw for the few
scalar methods the simulator uses, so a lossy run needs no third-party
package.  :mod:`hashlib` loads on the first :meth:`RngStreams.stream` or
:meth:`RngStreams.spawn` call, so a run that never draws a random number
never imports it.
"""

from __future__ import annotations

from typing import Dict, Sequence, TypeVar

__all__ = ["Pcg64", "RngStreams"]

_T = TypeVar("_T")

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
#: PCG's default 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TWO_POW_M53 = 1.0 / 9007199254740992.0

# numpy SeedSequence constants (a 4-word pool, hashmix/mix in uint32)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _seed_sequence_state(seed: int) -> Sequence[int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` as Python ints.

    A seed below 2**128 fills at most the 4-word entropy pool, which
    numpy pads with zero words; larger seeds take a further mixing pass
    that is not implemented, so they are refused.
    """
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must be an int in [0, 2**128) (got {seed!r})")
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix((seed >> shift) & _MASK32) for shift in (0, 32, 64, 96)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))

    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class Pcg64:
    """PCG64 (XSL-RR 128/64), seeded and drawn exactly as numpy does it.

    ``Pcg64(seed)`` yields the same stream as
    ``numpy.random.default_rng(seed)`` for an ``int`` seed in [0, 2**128),
    and each method below returns the same value as its numpy namesake
    called without ``size``:

    * :meth:`random` — a float in [0, 1) from the top 53 bits of a draw;
    * :meth:`integers` — numpy's 32-bit Lemire path, including the
      buffered upper half of a 64-bit draw that the next 32-bit draw
      consumes;
    * :meth:`uniform` and :meth:`choice` on top of those two.

    >>> rng = Pcg64(7)
    >>> 0.0 <= rng.random() < 1.0
    True
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_sequence_state(seed)
        initstate = s0 << 64 | s1
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        # pcg_setseq_128_srandom_r: step from 0, add the seed, step again
        state = (self._inc + initstate) & _MASK128
        self._state = (state * _PCG_MULT + self._inc) & _MASK128
        #: upper 32 bits of the last 64-bit draw, pending for _next32
        self._half = None

    def _next64(self) -> int:
        state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = state
        high = state >> 64
        word = (high ^ state) & _MASK64
        rot = high >> 58
        return ((word >> rot) | (word << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def random(self) -> float:
        """A float drawn uniformly from [0, 1)."""
        return (self._next64() >> 11) * _TWO_POW_M53

    def integers(self, low: int, high: int) -> int:
        """An int drawn uniformly from [low, high).

        Ranges wider than 2**32 values would take numpy's 64-bit path,
        which this generator does not implement; they raise
        ``ValueError``, as does an empty range.
        """
        span = high - low - 1  # inclusive span, as numpy's "rng"
        if span < 0:
            raise ValueError(f"integers: low >= high ({low!r}, {high!r})")
        if span == 0:
            return low
        if span > _MASK32:
            raise ValueError(
                f"integers: range [{low!r}, {high!r}) is wider than 2**32 values"
            )
        if span == _MASK32:
            return low + self._next32()
        # Lemire's nearly-divisionless bounded draw
        bound = span + 1
        m = self._next32() * bound
        leftover = m & _MASK32
        if leftover < bound:
            threshold = (_MASK32 - span) % bound
            while leftover < threshold:
                m = self._next32() * bound
                leftover = m & _MASK32
        return low + (m >> 32)

    def uniform(self, low: float, high: float) -> float:
        """A float drawn uniformly from [low, high)."""
        return low + (high - low) * self.random()

    def choice(self, seq: Sequence[_T]) -> _T:
        """One element of ``seq``, drawn uniformly (with replacement)."""
        return seq[self.integers(0, len(seq))]


class RngStreams:
    """A family of independent, named :class:`Pcg64` streams.

    >>> rngs = RngStreams(seed=42)
    >>> a = rngs.stream("loss")       # stable across runs
    >>> b = rngs.stream("jitter")     # independent of "loss"
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, Pcg64] = {}

    def stream(self, name: str) -> Pcg64:
        """Return (creating on first use) the generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            import hashlib

            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            gen = Pcg64(int.from_bytes(digest[:8], "little"))
            self._streams[name] = gen
        return gen

    def spawn(self, name: str) -> "RngStreams":
        """Derive a child family (e.g. one per node) from this one."""
        import hashlib

        digest = hashlib.sha256(f"{self.seed}/{name}".encode()).digest()
        return RngStreams(int.from_bytes(digest[:8], "little"))

    def __repr__(self) -> str:
        return f"RngStreams(seed={self.seed}, streams={sorted(self._streams)})"
