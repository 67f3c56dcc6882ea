"""Tests for the MPI benchmark kernels."""

import pytest

from repro.config import granada2003
from repro.workloads.mpibench import COLLECTIVES, collective_time, mpi_pingpong


def test_mpi_pingpong_measures_rtt():
    result = mpi_pingpong(granada2003(), "clic", 10_000)
    assert result.rtt_ns > 0
    assert result.nbytes == 10_000


def test_mpi_pingpong_clic_beats_tcp():
    clic = mpi_pingpong(granada2003(), "clic", 50_000)
    tcp = mpi_pingpong(granada2003(), "tcp", 50_000)
    assert clic.rtt_ns < tcp.rtt_ns


def test_collective_time_positive_for_all_ops():
    for op in COLLECTIVES:
        t = collective_time(granada2003(num_nodes=3), "clic", op, 1_000, repeats=1)
        assert t > 0, op


def test_collective_time_unknown_op_rejected():
    with pytest.raises(ValueError):
        collective_time(granada2003(), "clic", "juggle", 100)


def test_barrier_grows_logarithmically():
    t2 = collective_time(granada2003(num_nodes=2), "clic", "barrier", 0, repeats=2)
    t4 = collective_time(granada2003(num_nodes=4), "clic", "barrier", 0, repeats=2)
    t8 = collective_time(granada2003(num_nodes=8), "clic", "barrier", 0, repeats=2)
    # Rounds: 1, 2, 3 -> roughly linear in log2(P), far from linear in P.
    assert t4 < 2.8 * t2
    assert t8 < 2.0 * t4
