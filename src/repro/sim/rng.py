"""Deterministic random-number streams.

Every stochastic element of a simulation (packet-loss injection, workload
inter-arrival jitter, scheduler tie-breaking noise, ...) draws from its own
named stream so that adding randomness to one subsystem never perturbs
another.  All streams derive from a single root seed, making whole runs
bit-reproducible.

numpy (and :mod:`hashlib`) load on the first :meth:`RngStreams.stream` or
:meth:`RngStreams.spawn` call, so a run that never draws a random number
never imports them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:
    import numpy as np

__all__ = ["RngStreams"]


class RngStreams:
    """A family of independent, named :class:`numpy.random.Generator` streams.

    >>> rngs = RngStreams(seed=42)
    >>> a = rngs.stream("loss")       # stable across runs
    >>> b = rngs.stream("jitter")     # independent of "loss"
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            import hashlib

            import numpy as np

            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            gen = np.random.default_rng(child_seed)
            self._streams[name] = gen
        return gen

    def spawn(self, name: str) -> "RngStreams":
        """Derive a child family (e.g. one per node) from this one."""
        import hashlib

        digest = hashlib.sha256(f"{self.seed}/{name}".encode()).digest()
        return RngStreams(int.from_bytes(digest[:8], "little"))

    def __repr__(self) -> str:
        return f"RngStreams(seed={self.seed}, streams={sorted(self._streams)})"
