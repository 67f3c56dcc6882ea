"""MPI collective algorithms over point-to-point.

Classic implementations (the ones LAM/MPICH shipped in 2001-2003), built
purely on the rank's send/recv so they run over either transport.  These
are the three collectives the experiments and the bench measure:

* ``barrier``   — dissemination (log2 P rounds of 0-byte exchanges)
* ``bcast``     — binomial tree from the root
* ``allreduce`` — recursive doubling

Tags in the 0x7Fxx range keep collective traffic from colliding with
application point-to-point messages on the same communicator.
"""

from __future__ import annotations

from typing import Generator

__all__ = [
    "barrier",
    "bcast",
    "allreduce",
    "nic_barrier",
    "nic_bcast",
    "nic_allreduce",
]

TAG_BARRIER = 0x7F01
TAG_BCAST = 0x7F02
TAG_ALLREDUCE = 0x7F04


def barrier(ctx) -> Generator:
    """Dissemination barrier: ceil(log2 P) rounds."""
    size, rank = ctx.size, ctx.rank
    if size == 1:
        return
    step = 1
    while step < size:
        dest = (rank + step) % size
        source = (rank - step) % size
        req = ctx.isend(dest, 0, tag=TAG_BARRIER)
        yield from ctx.recv(0, source=source, tag=TAG_BARRIER)
        yield from req.wait()
        step *= 2


def bcast(ctx, nbytes: int, root: int = 0) -> Generator:
    """Binomial-tree broadcast; returns the received size on non-roots."""
    size = ctx.size
    if size == 1:
        return nbytes
    # Rotate so the root is virtual rank 0 (standard MPICH binomial).
    vrank = (ctx.rank - root) % size
    mask = 1
    while mask < size:
        if vrank & mask:
            source = ((vrank - mask) + root) % size
            yield from ctx.recv(nbytes, source=source, tag=TAG_BCAST)
            break
        mask *= 2
    # ``mask`` is the bit we received on (or the top bit for the root);
    # forward to children on all lower bits.
    mask //= 2
    while mask >= 1:
        if vrank + mask < size:
            dest = ((vrank + mask) + root) % size
            yield from ctx.send(dest, nbytes, tag=TAG_BCAST)
        mask //= 2
    return nbytes


def allreduce(ctx, nbytes: int) -> Generator:
    """Recursive doubling (power-of-two ranks take the fast path; the
    remainder folds in/out as MPICH does)."""
    size, rank = ctx.size, ctx.rank
    if size == 1:
        return 1
    # Largest power of two <= size.
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2
    contributions = 1
    # Fold the remainder: ranks >= pof2 send to rank - rem... (classic).
    if rank >= pof2:
        yield from ctx.send(rank - rem, nbytes, tag=TAG_ALLREDUCE, payload=contributions)
        msg = yield from ctx.recv(nbytes, source=rank - rem, tag=TAG_ALLREDUCE)
        return msg.payload if msg.payload is not None else size
    if rank >= pof2 - rem:
        msg = yield from ctx.recv(nbytes, source=rank + rem, tag=TAG_ALLREDUCE)
        # The TCP binding does not carry payload metadata; count one
        # contribution per folded rank either way.
        contributions += msg.payload if isinstance(msg.payload, int) else 1
    mask = 1
    vrank = rank
    while mask < pof2:
        peer = vrank ^ mask
        msg = yield from ctx.sendrecv(
            peer, nbytes, peer, nbytes, tag=TAG_ALLREDUCE
        )
        contributions *= 2  # symmetric merge each round
        mask *= 2
    contributions = size  # semantics: everyone holds the full reduction
    if rank >= pof2 - rem and rank < pof2:
        yield from ctx.send(rank + rem, nbytes, tag=TAG_ALLREDUCE, payload=contributions)
    return contributions


# ----------------------------------------------------------------------
# NIC-resident variants (collectives="nic"): the whole combine/forward
# tree runs in NIC firmware (repro.hw.nic.collective); the host posts a
# user-level doorbell and sleeps on the DMA'd completion — no syscall,
# no IRQ, no bottom half on the critical path.


def nic_barrier(ctx) -> Generator:
    """Barrier offloaded to the NIC collective engine."""
    if ctx.size == 1:
        return
    engine = ctx.world.nic_engine(ctx.rank)
    yield from engine.post(ctx.proc, "barrier")


def nic_bcast(ctx, nbytes: int, root: int = 0) -> Generator:
    """Broadcast offloaded to the NIC collective engine; returns the
    delivered size (matching the host binomial bcast)."""
    if ctx.size == 1:
        return nbytes
    engine = ctx.world.nic_engine(ctx.rank)
    result = yield from engine.post(ctx.proc, "bcast", nbytes=nbytes, root=root)
    return result


def nic_allreduce(ctx, nbytes: int) -> Generator:
    """Allreduce offloaded to the NIC collective engine; returns total
    contributions (== P, matching the host recursive doubling)."""
    if ctx.size == 1:
        return 1
    engine = ctx.world.nic_engine(ctx.rank)
    result = yield from engine.post(ctx.proc, "allreduce", nbytes=nbytes)
    return result
