"""Unit helpers.

All simulated time is in **nanoseconds**; all sizes in **bytes**.  These
helpers keep magic numbers out of the models and make the experiment code
read like the paper ("36 microseconds", "600 Mbits/s", "MTU 9000").
"""

from __future__ import annotations

__all__ = [
    "ns",
    "us",
    "seconds",
    "mbps",
    "bandwidth_mbps",
]


# -- time ---------------------------------------------------------------
def ns(x: float) -> float:
    """Nanoseconds (identity; for symmetry/readability)."""
    return float(x)


def us(x: float) -> float:
    """Microseconds -> ns."""
    return float(x) * 1_000.0


def seconds(x: float) -> float:
    """Seconds -> ns."""
    return float(x) * 1_000_000_000.0


# -- rates ---------------------------------------------------------------
def mbps(x: float) -> float:
    """Megabits/second -> bytes per nanosecond."""
    return x * 1e6 / 8 / 1e9


def bandwidth_mbps(nbytes: float, t_ns: float) -> float:
    """Achieved bandwidth in Mbit/s for ``nbytes`` moved in ``t_ns``."""
    if t_ns <= 0:
        return 0.0
    return (nbytes * 8) / (t_ns / 1e9) / 1e6
