"""Tests for the unit helpers and configuration presets."""

import pytest

from repro import config
from repro.units import bandwidth_mbps, mbps, ns, seconds, us


def test_time_conversions_roundtrip():
    assert us(1) == 1_000
    assert seconds(1) == 1_000_000_000
    assert ns(7) == 7.0


def test_bandwidth_math():
    # 1000 bytes in 8 us -> 1 Gb/s.
    assert bandwidth_mbps(1000, 8_000) == pytest.approx(1000.0)
    assert bandwidth_mbps(1000, 0) == 0.0
    # mbps(): 1000 Mb/s = 0.125 bytes/ns
    assert mbps(1000) == pytest.approx(0.125)


def test_granada_preset_matches_paper_constants():
    cfg = config.granada2003()
    # 0.65 us syscall round trip.
    k = cfg.node.kernel
    assert (k.syscall_enter_ns + k.syscall_exit_ns) == pytest.approx(650)
    # 33 MHz / 32-bit PCI.
    assert cfg.node.pci.clock_hz == 33e6
    assert cfg.node.pci.width_bytes == 4
    # GigE link.
    assert cfg.link.rate_bps == 1e9
    # Defaults: jumbo + 0-copy + coalescing (the paper's best config).
    assert cfg.node.nic.mtu == config.MTU_JUMBO
    assert cfg.node.clic.zero_copy
    assert cfg.node.nic.coalescing_enabled


def test_preset_knob_helpers():
    cfg = config.granada2003(mtu=1500, zero_copy=False)
    assert cfg.node.nic.mtu == 1500
    assert not cfg.node.clic.zero_copy
    node = cfg.node.with_coalescing(False).with_direct_rx(True).with_nic_count(2)
    assert not node.nic.coalescing_enabled
    assert node.kernel.direct_rx_dispatch
    assert node.nic_count == 2
    node = node.with_fragmentation_offload(True)
    assert node.nic.supports_fragmentation


def test_pci_effective_bandwidth_formula():
    p = config.PciParams()
    assert p.effective_bw_Bps == pytest.approx(33e6 * 4 * 0.82)
    fast = config.pci_66mhz_64bit()
    assert fast.effective_bw_Bps >= 3.9 * p.effective_bw_Bps


def test_effective_mtu_respects_jumbo_support():
    nic = config.NicParams(mtu=9000, supports_jumbo=False)
    assert nic.effective_mtu() == 1500
    nic = config.NicParams(mtu=9000, supports_jumbo=True)
    assert nic.effective_mtu() == 9000
    nic = config.NicParams(mtu=1500)
    assert nic.effective_mtu() == 1500


def test_configs_are_frozen():
    cfg = config.granada2003()
    with pytest.raises(Exception):
        cfg.node.nic.mtu = 1  # type: ignore[misc]


def test_clic_window_below_rx_ring():
    """The flow-control invariant DESIGN.md documents: a full window of
    frames must fit in the receiver's rx ring."""
    cfg = config.granada2003()
    assert cfg.node.clic.window_frames <= cfg.node.nic.rx_ring_slots
