"""MPI point-to-point tests over both transports."""

import pytest

from repro.cluster import Cluster
from repro.config import granada2003
from repro.mpi import build_world
from repro.sim import SimulationError


def make_cluster(nodes=2):
    return Cluster(granada2003(num_nodes=nodes))


@pytest.mark.parametrize("transport", ["clic", "tcp"])
def test_send_recv_roundtrip(transport):
    cluster = make_cluster()

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, 10_000, tag=3)
            msg = yield from ctx.recv(5_000, source=1, tag=4)
            return msg.nbytes
        msg = yield from ctx.recv(10_000, source=0, tag=3)
        yield from ctx.send(0, 5_000, tag=4)
        return msg.nbytes

    results = build_world(cluster, transport=transport).run(program)
    assert results == [5_000, 10_000]


def test_any_source_recv_on_clic():
    cluster = make_cluster(3)

    def program(ctx):
        if ctx.rank == 0:
            sources = set()
            for _ in range(2):
                msg = yield from ctx.recv(100)
                sources.add(msg.source)
            return sources
        yield from ctx.send(0, 100)
        return None

    results = build_world(cluster, transport="clic").run(program)
    assert results[0] == {1, 2}


def test_any_source_on_tcp_raises():
    cluster = make_cluster()

    def program(ctx):
        if ctx.rank == 0:
            try:
                yield from ctx.recv(100)
            except NotImplementedError:
                yield from ctx.recv(100, source=1)
                return "fellback"
        else:
            yield from ctx.send(0, 100)
        return None

    results = build_world(cluster, transport="tcp").run(program)
    assert results[0] == "fellback"


def test_isend_irecv_overlap():
    cluster = make_cluster()

    def program(ctx):
        peer = 1 - ctx.rank
        rreq = ctx.irecv(2_000, source=peer, tag=1)
        sreq = ctx.isend(peer, 2_000, tag=1)
        msg = yield from rreq.wait()
        yield from sreq.wait()
        return msg.nbytes

    assert build_world(cluster).run(program) == [2_000, 2_000]


def test_request_test_polls_completion():
    cluster = make_cluster()

    def program(ctx):
        peer = 1 - ctx.rank
        req = ctx.irecv(100, source=peer)
        assert req.test() is None
        assert not req.done
        yield from ctx.send(peer, 100)
        msg = yield from req.wait()
        assert req.done
        assert req.test() is not None
        return msg.nbytes

    assert build_world(cluster).run(program) == [100, 100]


def test_sendrecv_exchanges_without_deadlock():
    cluster = make_cluster()

    def program(ctx):
        peer = 1 - ctx.rank
        msg = yield from ctx.sendrecv(peer, 50_000, peer, 50_000)
        return msg.nbytes

    assert build_world(cluster).run(program) == [50_000, 50_000]


def test_wrong_size_recv_detected():
    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, 200)
        else:
            yield from ctx.recv(100, source=0)

    for transport in ("clic", "tcp"):
        with pytest.raises(AssertionError):
            build_world(make_cluster(), transport=transport).run(program)


@pytest.mark.parametrize("transport, error", [("clic", SimulationError),
                                              ("tcp", AssertionError)])
def test_recv_of_another_size_and_tag_raises(transport, error):
    """Rank 0 sends 200 B with tag 3; rank 1 posts 100 B with tag 9.
    CLIC never matches the receive, so the run cannot finish; TCP takes
    the pair's next message in order and finds its tag wrong."""
    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, 200, tag=3)
        else:
            yield from ctx.recv(100, source=0, tag=9)

    with pytest.raises(error):
        build_world(make_cluster(), transport=transport).run(program)


@pytest.mark.parametrize("first", ["send", "recv"])
def test_tcp_recv_posted_larger_than_the_next_message_raises(first):
    """Rank 0 sends 100 B; rank 1 posts 200 B.  The stream would wait
    for bytes nobody sends; the pair's size check raises instead, as
    CLIC's receive does, whether the send or the receive comes first
    (a 1-byte message orders them)."""
    def program(ctx):
        if ctx.rank == 0:
            if first == "send":
                yield from ctx.send(1, 1)
            else:
                yield from ctx.recv(1, source=1)
            yield from ctx.send(1, 100, tag=3)
        else:
            if first == "send":
                yield from ctx.recv(1, source=0)
            else:
                yield from ctx.send(0, 1)
            yield from ctx.recv(200, source=0, tag=3)

    with pytest.raises(AssertionError, match="posted 200 B but received 100 B") as raised:
        build_world(make_cluster(), transport="tcp").run(program)
    # the second of the two calls raised
    assert raised.traceback[-2].name == ("recv" if first == "send" else "send")


def test_rank_out_of_range_rejected():
    cluster = make_cluster()

    def program(ctx):
        yield from ctx.send(5, 100)

    with pytest.raises(ValueError):
        build_world(cluster).run(program)


def test_invalid_transport_rejected():
    with pytest.raises(ValueError):
        build_world(make_cluster(), transport="smoke-signals")


def test_tag_matching_across_messages():
    cluster = make_cluster()

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, 100, tag=7)
            yield from ctx.send(1, 200, tag=8)
        else:
            late = yield from ctx.recv(200, source=0, tag=8)
            early = yield from ctx.recv(100, source=0, tag=7)
            return (early.tag, late.tag)
        return None

    results = build_world(cluster, transport="clic").run(program)
    assert results[1] == (7, 8)


def test_mpi_adds_library_overhead_vs_raw_clic():
    """MPI-CLIC must sit below raw CLIC (Figure 6's top two curves)."""
    from repro.workloads import clic_pair, pingpong

    def mpi_latency():
        cluster = make_cluster()
        world = build_world(cluster, "clic")

        def program(ctx):
            peer = 1 - ctx.rank
            if ctx.rank == 0:
                t0 = ctx.proc.env.now
                yield from ctx.send(peer, 0)
                yield from ctx.recv(0, source=peer)
                return ctx.proc.env.now - t0
            msg = yield from ctx.recv(0, source=peer)
            yield from ctx.send(peer, 0)
            return None

        return world.run(program)[0] / 2

    raw = pingpong(Cluster(granada2003()), clic_pair(), 0, repeats=2, warmup=1).one_way_ns
    assert mpi_latency() > raw * 0.9  # envelope bytes + per-call cost
