"""Exact verification of collinearity bounds and the rich-secant census.

The verifier buckets every point of a set by the integer intercept
c = vy*x - vx*y of each swept direction; the largest bucket of a
direction is the largest number of set points on one line of that
direction.  Directions are swept by increasing modulus M, and the sweep
stops once no line of modulus M or more can hold more points than the
fullest line found, so the reported maximum and its witness are exact.
The sweep is `grid._heaviest_line`, shared with `max_expected_load`;
the verifier hands it one histogram of the set's points per direction.
Axis-parallel lines are handled separately by row/column histograms
over the set's bounding box [x0, x1] x [y0, y1].

The keys are decoded by column runs, not into coordinate arrays: the
sorted keys of column x are those in [(x-1)*n, x*n), so one
`searchsorted` gives every column's count, x - x0 is a `repeat` of the
column offsets by those counts, and y is the key less its repeated
column base, the one int64 temporary.  Intercepts are offset by the
lowest one over the box, so c - c0 = |vy|*X + vx*Y with X = x - x0 when
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
from math import inf, isqrt
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

    @property
    def worst_line_text(self) -> str:
        """`direction (vx,vy) intercept c` for worst_line, or `none`."""
        if self.worst_line is None:
            return "none"
        d, c = self.worst_line
        return f"direction ({d.vx},{d.vy}) intercept {c}"

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} k={self.k} reserve>={self.required_reserve} "
            f"axis_max={self.axis_max} generic_max={self.generic_max} "
            f"achieved_reserve={self.achieved_reserve} worst_line={self.worst_line_text} "
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
    n, keys = points.n, points.keys
    # the keys are sorted by (x, y), so column x is the run of keys in
    # [(x - 1) * n, x * n): the first and last key give the columns'
    # span [x0, x1], one searchsorted gives each run, and the first and
    # last key of each run hold its column's lowest and highest y
    x0, x1 = (int(keys[0]) // n + 1, int(keys[-1]) // n + 1) if len(keys) else (1, 1)
    runs = np.searchsorted(keys, np.arange(x0 - 1, x1 + 1) * n)
    cols = np.diff(runs)
    first, last = keys[runs[:-1][cols > 0]] % n, keys[runs[1:][cols > 0] - 1] % n
    y0, y1 = (int(first.min()) + 1, int(last.max()) + 1) if len(keys) else (1, 1)
    span = max(x1 - x0, y1 - y0)

    # the offset arrays of the module docstring; a modulus-M class needs
    # their type to hold 2*M*span, up to `top`.  X0 and X1 come straight
    # from the column runs, and y - y0 is each key less its column's
    # base and y0 - 1, repeated over the run: the one int64 temporary,
    # freed once Y1 exists.  Rows are counted as y - y0 and columns as
    # x - x0, over the box, so a set in a far corner gets histograms of
    # its own size; ux and uy hold the occupied ones.
    dtype = _offset_dtype(2 * span)
    X0 = np.repeat(np.arange(x1 - x0 + 1, dtype=dtype), cols)
    X1 = np.subtract(x1 - x0, X0, dtype=dtype)
    ys = np.repeat(np.arange(x0 - 1, x1) * n + (y0 - 1), cols)
    ys = np.subtract(keys, ys, out=ys)
    rows = np.bincount(ys, minlength=1)
    axis_max = int(max(cols.max(), rows.max()))
    Y1 = np.subtract(y1 - y0, ys, out=np.empty(len(ys), dtype))
    del ys
    ux, uy = np.flatnonzero(cols), np.flatnonzero(rows)
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
        # a shift or a reflection of the offsets permutes the residues
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


def _mobius(N: int) -> np.ndarray:
    """mu[d], the Möbius function, for d in [0, N] (mu[0] = 0).

    Only the primes p up to sqrt(N) are sieved, and rad[d] collects the
    ones that divide d.  A square-free d is rad[d] times 1 or one prime
    above sqrt(N) (two would exceed N), which flips the sign."""
    mu = np.ones(N + 1, dtype=np.int8)
    rad = np.ones(N + 1, dtype=np.int64)
    mu[0] = 0
    for p in range(2, isqrt(N) + 1):
        if rad[p] == 1:  # no smaller prime divides p
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
            rad[p::p] *= p
    mu[rad != np.arange(N + 1)] *= -1
    return mu


def census(n: int, j: int) -> CensusRow:
    """Exact rich-secant count by the closed form: for a direction
    (a, b) with a, b > 0, the number of grid points starting a run of t
    collinear points is N_t = f_t(a) * f_t(b), f_t(a) = max(0, n-(t-1)a),
    and the number of its lines with >= j points is N_j - N_{j+1}.  Both
    sign classes contribute equally.  The sum of f_t(a) * f_t(b) over
    coprime a, b is, by Möbius inversion, the sum over d of
    mu(d) * S_t(d)^2, where S_t(d) = sum over a >= 1 of f_t(d*a) is an
    arithmetic series: with A = (n-1) // ((t-1)d) nonzero terms it is
    A*n - (t-1)*d*A(A+1)/2.  mu is sieved up to (n-1)//(j-1), and the
    squares are summed as exact Python integers.  n and j must be
    integers (numpy integers pass).
    """
    _check_int(n=n, j=j)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if j < 2:
        raise ValueError(f"j must be >= 2, got {j}")
    n, j = int(n), int(j)
    mu = _mobius((n - 1) // (j - 1))

    def series(t: int, d: np.ndarray) -> list[int]:
        step = (t - 1) * d
        A = (n - 1) // step
        return (A * n - step * (A * (A + 1) // 2)).tolist()

    total = 0
    # a chunk of d at a time, so few exact Python ints are alive at once
    for d in np.array_split(np.flatnonzero(mu), len(mu) // 2**14 + 1):
        terms = zip(mu[d].tolist(), series(j, d), series(j + 1, d))
        total += sum(m * (s * s - r * r) for m, s, r in terms)
    return CensusRow(n=n, j=j, count=2 * total)


def richness_bound(n: int, kappa: float, L: float = 1.0) -> float:
    """Upper-bound profile L * n^4 / kappa^3 for the number of generic
    secants holding more than kappa grid points; n must be an integer
    (numpy integers pass).  A bound that overflows a float raises
    ValueError naming n, kappa and L."""
    _check_int(n=n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 < kappa < inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    if not 0 < L < inf:
        raise ValueError(f"L must be positive and finite, got {L}")
    try:
        bound = L * n**4 / kappa**3
    except (OverflowError, ZeroDivisionError):  # kappa**3 may underflow to 0
        bound = inf
    if bound == inf:
        raise ValueError(f"L*n^4/kappa^3 overflows a float for n={n}, kappa={kappa}, L={L}")
    return bound
