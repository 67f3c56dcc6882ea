"""Message-size sweeps: the x-axis of Figures 4, 5 and 6.

The paper plots bandwidth against message size from 10^1 to 10^7 bytes
on a log axis.  :func:`netpipe_sizes` generates that grid and
:class:`SweepSeries` holds one measured curve.  The sweeps themselves
(a fresh cluster per point, fanned out over a process pool with
``jobs > 1``) are :func:`repro.experiments.common.sweep_pingpong` and
:func:`~repro.experiments.common.sweep_stream`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from .pingpong import PingPongResult

__all__ = ["netpipe_sizes", "SweepSeries"]


def netpipe_sizes(
    min_exp: int = 1,
    max_exp: int = 7,
    points_per_decade: int = 3,
) -> List[int]:
    """Log-spaced message sizes, ``10^min_exp .. 10^max_exp`` bytes."""
    if min_exp > max_exp:
        raise ValueError("min_exp must be <= max_exp")
    if points_per_decade < 1:
        raise ValueError("points_per_decade must be >= 1")
    sizes: List[int] = []
    for exp in range(min_exp, max_exp):
        base = 10**exp
        for i in range(points_per_decade):
            size = int(round(base * 10 ** (i / points_per_decade)))
            if not sizes or size > sizes[-1]:
                sizes.append(size)
    sizes.append(10**max_exp)
    return sizes


class SweepSeries:
    """One labeled bandwidth-vs-size curve.

    Iterable and sized (``for point in series`` / ``len(series)``);
    points are appended through :meth:`add`.
    """

    def __init__(self, label: str, points: Optional[Sequence[PingPongResult]] = None):
        self.label = label
        self.points: List[PingPongResult] = list(points or ())

    def add(self, point: PingPongResult) -> PingPongResult:
        """Append one measured point."""
        self.points.append(point)
        return point

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[PingPongResult]:
        return iter(self.points)

    @property
    def sizes(self) -> List[int]:
        return [p.nbytes for p in self.points]

    @property
    def mbps(self) -> List[float]:
        return [p.bandwidth_mbps for p in self.points]

    def asymptote(self) -> float:
        """Bandwidth at the largest measured size."""
        return self.points[-1].bandwidth_mbps

    def as_dict(self) -> Dict:
        """The whole series as a plain dict."""
        return {"label": self.label, "points": [p.as_dict() for p in self.points]}
