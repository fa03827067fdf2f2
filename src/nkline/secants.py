"""Exact verification of collinearity bounds and the rich-secant census.

The verifier buckets every point of a set by the integer intercept
c = vy*x - vx*y of each swept direction; the largest bucket of a
direction is the largest number of set points on one line of that
direction.  Directions are swept by increasing modulus M, and the sweep
stops once no line of modulus M or more can hold more points than the
fullest line found, so the reported maximum and its witness are exact.
The sweep is `grid._heaviest_line`, shared with `max_expected_load`;
the verifier hands it one histogram of the set's points per direction.
Axis-parallel lines are handled separately by row/column histograms.

Intercepts are offset by the lowest one over the set's bounding box
[x0, x1] x [y0, y1], so c - c0 = |vy|*X + vx*Y with X = x - x0 when
vy > 0, X = x1 - x when vy < 0, and Y = y1 - y.  The three offset arrays
are built once per call, and each direction's histogram is one
`bincount` of |vy|*X + vx*Y, with no multiply for a coefficient of 1
(a modulus-1 direction is a single add).  Both terms are nonnegative
and their sum is at most 2*M*span on a modulus-M class, span being the
larger side of the box.  So the offsets are held in the narrowest of
int16, int32 and int64 that holds that bound (int16 up to M = 41 on a
400-wide box), and are widened once, from the narrow copies, when the
walk first reaches a class that needs more.  Histograms are dense
arrays, not hash maps, since the sweep is the hot loop for grids in the
hundreds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, inf
from typing import Optional

import numpy as np

from .grid import Direction, PointSet, _check_int, _heaviest_line, line_points


@dataclass(frozen=True)
class VerificationReport:
    """Certificate for one verification run.

    Stores only what the sweep measured, and the bounds it was asked to
    check: generic_max is the exact largest number of set points on one
    generic line, worst_line the first such line in (modulus, vx, vy)
    order, axis_max the fullest row or column, and directions_swept the
    directions the sweep made an intercept histogram for (classes its
    caps rule out are not counted).  achieved_reserve and
    passed are derived, so a copy re-targeted with `replace` (a new k or
    required_reserve) re-derives its verdict.
    """

    k: int
    required_reserve: int
    axis_max: int
    generic_max: int
    worst_line: Optional[tuple[Direction, int]]
    directions_swept: int

    @property
    def achieved_reserve(self) -> int:
        return self.k - self.generic_max

    @property
    def passed(self) -> bool:
        return self.axis_max <= self.k and self.generic_max <= self.k - self.required_reserve

    def summary(self) -> str:
        worst = (
            f"direction ({self.worst_line[0].vx},{self.worst_line[0].vy}) "
            f"intercept {self.worst_line[1]}"
            if self.worst_line
            else "none"
        )
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} k={self.k} reserve>={self.required_reserve} "
            f"axis_max={self.axis_max} generic_max={self.generic_max} "
            f"achieved_reserve={self.achieved_reserve} worst_line={worst} "
            f"directions_swept={self.directions_swept}"
        )


def _offset_dtype(bound: int) -> np.dtype:
    """The narrowest of int16, int32 and int64 that holds every integer
    in [0, bound]."""
    for t in (np.int16, np.int32):
        if bound <= np.iinfo(t).max:
            return np.dtype(t)
    return np.dtype(np.int64)


def verify(points: PointSet, k: int, reserve: int = 0) -> VerificationReport:
    """Check |S ∩ line| <= k on every line and <= k - reserve on every
    generic line.  A failing set yields a failing report, never an error.
    """
    _check_int(k=k, reserve=reserve)
    if reserve < 0:
        raise ValueError("reserve must be >= 0")
    n = points.n
    xs, ys = points.xy()
    cols, rows = np.bincount(xs, minlength=1), np.bincount(ys, minlength=1)
    axis_max = int(max(cols.max(), rows.max()))
    ux, uy = np.flatnonzero(cols), np.flatnonzero(rows)

    # intercepts are offset by the lowest one over the set's bounding
    # box, so no direction needs a pass for its minimum (an empty set
    # sweeps no direction)
    x0, x1 = (int(ux[0]), int(ux[-1])) if len(points) else (0, 0)
    y0, y1 = (int(uy[0]), int(uy[-1])) if len(points) else (0, 0)
    span = max(x1 - x0, y1 - y0)

    # the offset arrays of the module docstring, each decoded coordinate
    # array freed once its offsets exist; a modulus-M class needs their
    # type to hold 2*M*span, up to `top`
    dtype = _offset_dtype(2 * span)
    Y1 = np.subtract(y1, ys, out=np.empty(len(ys), dtype))
    del ys
    X0 = np.subtract(xs, x0, out=np.empty(len(xs), dtype))
    X1 = np.subtract(x1, xs, out=np.empty(len(xs), dtype))
    del xs
    c, tmp = np.empty_like(Y1), np.empty_like(Y1)
    top = np.iinfo(dtype).max

    def histogram(d: Direction) -> tuple[np.ndarray, int]:
        nonlocal X0, X1, Y1, c, tmp, top
        if 2 * d.modulus * span > top:
            wider = _offset_dtype(2 * d.modulus * span)
            X0, X1, Y1 = X0.astype(wider), X1.astype(wider), Y1.astype(wider)
            c, tmp = np.empty_like(Y1), np.empty_like(Y1)
            top = np.iinfo(wider).max
        a, X = (d.vy, X0) if d.vy > 0 else (-d.vy, X1)
        # c - c0 = a*X + vx*Y1, with no multiply for a coefficient of 1
        if a > 1:
            X = np.multiply(X, a, out=c)
        Y = np.multiply(Y1, d.vx, out=tmp) if d.vx > 1 else Y1
        np.add(X, Y, out=c)
        c0 = (d.vy * x0 if d.vy > 0 else d.vy * x1) - d.vx * y1
        return np.bincount(c), c0

    def residue_cap(M: int) -> int:
        return int(max(np.bincount(ux % M).max(), np.bincount(uy % M).max()))

    # a generic line meets each row and column at most once; a modulus-M
    # line steps x or y by M, so it holds at most span//M + 1 points of
    # the bounding box, in occupied columns or rows of one residue mod M.
    # On a set that fills every row or column the residue cap is never
    # below (n-1)//M + 1, so it is tried only on sets that miss both.
    generic_max, worst, swept = _heaviest_line(
        n,
        lambda M: min(len(ux), len(uy), span // M + 1),
        histogram,
        residue_cap if len(ux) < n and len(uy) < n else None,
    )
    return VerificationReport(
        k=k,
        required_reserve=reserve,
        axis_max=axis_max,
        generic_max=generic_max,
        worst_line=worst,
        directions_swept=swept,
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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 < kappa < inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    if not 0 < L < inf:
        raise ValueError(f"L must be positive and finite, got {L}")
    return L * n**4 / kappa**3
