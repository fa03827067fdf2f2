"""Exact verification of collinearity bounds and the rich-secant census.

The verifier buckets every point of a set by the integer intercept
c = vy*x - vx*y of each swept direction; the largest bucket of a
direction is the largest number of set points on one line of that
direction.  Axis-parallel lines are handled separately by row/column
histograms.  Sweeps are numpy-vectorised per direction; intercept
histograms are dense arrays, not hash maps, since the sweep is the hot
loop for grids in the hundreds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Optional

import numpy as np

from .grid import Direction, PointSet, line_points

_dir_cache: dict[int, list[Direction]] = {}


def primitive_directions(n: int, threshold: int = 2) -> list[Direction]:
    """Primitive directions whose lines can hold at least `threshold`
    grid points of [1,n]^2, i.e. those of modulus <= (n-1)//(threshold-1).
    Both sign classes of vy are included.
    """
    if threshold < 2:
        raise ValueError(f"threshold must be >= 2, got {threshold}")
    cutoff = (n - 1) // (threshold - 1)
    dirs = []
    for vx in range(1, cutoff + 1):
        for vy in range(1, cutoff + 1):
            if max(vx, vy) <= cutoff and gcd(vx, vy) == 1:
                dirs.append(Direction(vx, vy))
                dirs.append(Direction(vx, -vy))
    dirs.sort(key=lambda d: (d.modulus, d.vx, d.vy))
    return dirs


def _directions_for(n: int) -> list[Direction]:
    dirs = _dir_cache.get(n)
    if dirs is None:
        dirs = primitive_directions(n, 2)
        _dir_cache[n] = dirs
    return dirs


@dataclass(frozen=True)
class VerificationReport:
    """Certificate for one verification run.

    generic_max is the largest number of set points found on one swept
    generic line and achieved_reserve = k - generic_max.  In
    threshold-limited mode only directions of modulus <=
    (n-1)//(k-reserve) are swept; unswept lines cannot hold more than
    k-reserve grid points, so `passed` is sound either way, but
    generic_max is exact only in exhaustive mode.
    """

    k: int
    required_reserve: int
    mode: str
    axis_max: int
    generic_max: int
    achieved_reserve: int
    worst_line: Optional[tuple[Direction, int]]
    per_direction_max: dict[Direction, int] = field(repr=False)
    passed: bool = False

    def summary(self) -> str:
        worst = (
            f"direction ({self.worst_line[0].vx},{self.worst_line[0].vy}) "
            f"intercept {self.worst_line[1]}"
            if self.worst_line
            else "none"
        )
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} k={self.k} reserve>={self.required_reserve} mode={self.mode} "
            f"axis_max={self.axis_max} generic_max={self.generic_max} "
            f"achieved_reserve={self.achieved_reserve} worst_line={worst}"
        )


def verify(
    points: PointSet,
    k: int,
    reserve: int = 0,
    mode: str = "threshold",
) -> VerificationReport:
    """Check |S ∩ line| <= k on every line and <= k - reserve on every
    generic line.  A failing set yields a failing report, never an error.

    mode="threshold" sweeps only directions whose lines can hold more
    than k - reserve grid points (sufficient for the certificate);
    mode="exhaustive" sweeps every direction up to modulus n-1.
    """
    if mode not in ("threshold", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    if reserve < 0:
        raise ValueError("reserve must be >= 0")
    n = points.n
    xy = points.sorted_xy()
    if xy:
        xs = np.fromiter((p[0] for p in xy), dtype=np.int64, count=len(xy))
        ys = np.fromiter((p[1] for p in xy), dtype=np.int64, count=len(xy))
        axis_max = int(max(np.bincount(xs).max(), np.bincount(ys).max()))
    else:
        xs = ys = np.empty(0, dtype=np.int64)
        axis_max = 0

    if mode == "exhaustive" or k - reserve < 2:
        dirs = _directions_for(n)
    else:
        # lines of modulus > (n-1)//(k-reserve) hold at most k-reserve grid points
        dirs = primitive_directions(n, k - reserve + 1)

    generic_max = 0
    worst: Optional[tuple[Direction, int]] = None
    per_dir: dict[Direction, int] = {}
    if len(xy) > 0:
        for d in dirs:
            c = d.vy * xs - d.vx * ys
            cmin = int(c.min())
            counts = np.bincount(c - cmin)
            m = int(counts.max())
            per_dir[d] = m
            if m > generic_max:
                generic_max = m
                worst = (d, cmin + int(np.argmax(counts)))
    else:
        per_dir = {d: 0 for d in dirs}

    passed = axis_max <= k and generic_max <= k - reserve
    return VerificationReport(
        k=k,
        required_reserve=reserve,
        mode=mode,
        axis_max=axis_max,
        generic_max=generic_max,
        achieved_reserve=k - generic_max,
        worst_line=worst,
        per_direction_max=per_dir,
        passed=passed,
    )


def count_on_line(points: PointSet, direction: Direction, c: int) -> int:
    """Recount |S ∩ line| directly; used to audit report witnesses."""
    return sum(1 for p in line_points(points.n, direction, c) if p in points)


@dataclass(frozen=True)
class CensusRow:
    """Count of generic secants of [1,n]^2 holding at least j grid points."""

    n: int
    j: int
    count: int


def census(n: int, j: int) -> CensusRow:
    """Exact rich-secant count by the closed form: for a direction
    (a, b) with a, b > 0, the number of grid points starting a run of t
    collinear points is N_t = max(0, n-(t-1)a) * max(0, n-(t-1)b), and
    the number of its lines with >= j points is N_j - N_{j+1}.  Both
    sign classes contribute equally.
    """
    if j < 2:
        raise ValueError(f"j must be >= 2, got {j}")
    cutoff = (n - 1) // (j - 1)
    total = 0
    for a in range(1, cutoff + 1):
        for b in range(1, cutoff + 1):
            if gcd(a, b) != 1:
                continue
            nj = max(0, n - (j - 1) * a) * max(0, n - (j - 1) * b)
            nj1 = max(0, n - j * a) * max(0, n - j * b)
            total += 2 * (nj - nj1)
    return CensusRow(n=n, j=j, count=total)


def richness_bound(n: int, kappa: float, L: float = 1.0) -> float:
    """Upper-bound profile L * n^4 / kappa^3 for the number of generic
    secants holding more than kappa grid points."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return L * n**4 / kappa**3
