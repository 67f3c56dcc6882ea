"""A workload whose transport gives up fails with a typed error.

Regression: a Gilbert–Elliott burst at 1% loss can swallow all of a
CLIC sender's retries; the sender declares the peer dead and stops, and
the receiver waits forever.  The run must say so instead of reporting a
drained event queue.
"""

import pytest

from repro.protocols import DeliveryFailed
from repro.sim import SimulationError
from repro.trace import capture_fig4_point
from repro.workloads import TransferFailed

#: cluster seed whose GE loss pattern exhausts the sender's retries
BURST_SEED = 317995583


def test_lossy_stream_reports_failed_channel_and_dead_peer():
    with pytest.raises(TransferFailed) as info:
        capture_fig4_point(nbytes=65536, messages=4, loss=0.01,
                           loss_model="ge", seed=BURST_SEED)
    err = info.value
    assert isinstance(err, DeliveryFailed)
    assert isinstance(err.__cause__, SimulationError)
    assert [str(c).split(":")[0] for c in err.channels] == ["node0.clic.tx->1"]
    assert "retries" in str(err.channels[0])
    assert [(scope, peer) for scope, peer, _ in err.dead_peers] == [("node0.clic", 1)]
    assert str(err).startswith("stream did not complete: node0.clic.tx->1: ")
    assert "node0.clic declared peer 1 dead" in str(err)


def test_neighbouring_seed_still_completes():
    """The typed error changes no outcome: other seeds run as before."""
    art = capture_fig4_point(nbytes=65536, messages=4, loss=0.01,
                             loss_model="ge", seed=1)
    assert art.result["latency"]["delivered"] == 4
