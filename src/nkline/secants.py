"""Exact verification of collinearity bounds and the rich-secant census.

The verifier counts the points of a set on every line c = vy*x - vx*y
of each swept direction; the fullest line of a direction holds the
largest number of set points on one line of that direction.
Directions are swept by increasing modulus M, and the sweep stops once
no line of modulus M or more can hold more points than the fullest line
found, so the reported maximum and its witness are exact.  The sweep is
`grid._heaviest_line`, shared with `max_expected_load`; the verifier
hands it, per direction, the weight of the set's fullest line and its
smallest intercept.  Axis-parallel lines are handled separately by
row/column counts over the set's bounding box [x0, x1] x [y0, y1].

The keys are decoded by column runs, not into coordinate arrays: the
sorted keys of column x are those in [(x-1)*n, x*n), so one
`searchsorted` gives every column's count, and a `repeat` of one value
per column by those counts gives each key what it needs from its
column.  Two sweeps count the lines, with the same report; one private
rule (`_mask_pays`) picks the faster, from the number of points and the
box, unless its peak would be the higher.

The intercept sweep (sparse sets) offsets intercepts by the lowest one
over the box, so c - c0 = |vy|*X + vx*Y with X = x - x0 when vy > 0,
X = x1 - x when vy < 0, and Y = y1 - y; y is the key less its repeated
column base, the one int64 temporary.  The three offset arrays are
built once per call, and each direction's histogram is one `bincount`
of |vy|*X + vx*Y, with no multiply for a coefficient of 1 (a modulus-1
direction is a single add).  Both terms are nonnegative and their sum
is at most 2*M*span on a modulus-M class, span being the larger side
of the box.  So the offsets are held in the narrowest of int16, int32
and int64 that holds that bound (`grid._narrowest_int`; int16 up to
M = 41 on a 400-wide box), and are widened once, from the narrow
copies, when the walk first reaches a class that needs more.

The mask sweep (dense sets) scatters the keys once into a zero-padded
uint8 mask of the box, a row per x, with a stride of nx + ny bytes, so
that each row's right padding is the next row's left padding.  The
lines of a direction (vx, vy) with |vy| <= vx are then one strided view
of the mask, vx classes of x by their steps by offsets, summed over
the steps in uint8 chunks of 255 with no intercept computed
(`_line_counts`); a direction with |vy| > vx reads the transposed
mask, built the first time the walk reaches one.  Only the fullest
lines are mapped back to their intercepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isqrt
from typing import Callable, Optional

import numpy as np

from .grid import Direction, PointSet, _check_int, _heaviest_line, _heaviest_of, line_points
from .grid import _narrowest_int


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


def _mask_pays(points: int, nx: int, ny: int) -> bool:
    """Whether `verify` sweeps a set of `points` points whose bounding
    box is nx x ny through its byte masks (`_mask_lines`) rather than
    through its intercepts (`_intercept_lines`).

    Both sweeps give the same report; the rule picks the faster one
    whose peak is no higher.  Measured on random sets of sides 30 to
    900 (2 cores, numpy 2.4), a direction costs the mask sweep ~8 µs
    plus ~0.05 ns per byte of its mask, max(nx, ny) * (nx + ny), and
    the intercept sweep ~4 µs plus ~1.6 ns per point.  The two masks
    take (nx + ny)^2 bytes, the intercept sweep's offsets and its
    `bincount` copy ~18 bytes a point.
    """
    mask_ns = 8000 + 0.05 * max(nx, ny) * (nx + ny)
    return mask_ns < 4000 + 1.6 * points and (nx + ny) ** 2 <= 18 * points


# (rows, heaviest) of one sweep: rows[y - y0] counts the points of row y,
# and heaviest(d) gives the weight and smallest intercept of d's fullest line
_Lines = tuple[np.ndarray, Callable[[Direction], tuple[int, int]]]


def _intercept_lines(
    keys: np.ndarray, n: int, x0: int, y0: int, nx: int, ny: int, cols: np.ndarray
) -> _Lines:
    """The intercept sweep of the set `keys` on the nx x ny box at
    (x0, y0), whose column x holds cols[x - x0] points: one `bincount`
    of the offset intercepts per direction."""
    x1, y1, span = x0 + nx - 1, y0 + ny - 1, max(nx, ny) - 1
    # the offset arrays of the module docstring; a modulus-M class needs
    # their type to hold 2*M*span, up to `top`.  X0 and X1 come straight
    # from the column runs, and y - y0 is each key less its column's
    # base and y0 - 1, repeated over the run: the one int64 temporary,
    # freed once Y1 exists.
    dtype = _narrowest_int(2 * span)
    X0 = np.repeat(np.arange(nx, dtype=dtype), cols)
    X1 = np.subtract(nx - 1, X0, dtype=dtype)
    ys = np.repeat(np.arange(x0 - 1, x1) * n + (y0 - 1), cols)
    ys = np.subtract(keys, ys, out=ys)
    rows = np.bincount(ys, minlength=1)
    Y1 = np.subtract(ny - 1, ys, out=np.empty(len(ys), dtype))
    del ys
    c, tmp = np.empty_like(Y1), np.empty_like(Y1)
    top = np.iinfo(dtype).max

    def heaviest(d: Direction) -> tuple[int, int]:
        nonlocal X0, X1, Y1, c, tmp, top
        if 2 * d.modulus * span > top:
            wider = _narrowest_int(2 * d.modulus * span)
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
        return _heaviest_of(np.bincount(c), c0)

    return rows, heaviest


def _line_counts(
    mask: np.ndarray, pad: int, stride: int, height: int, p: int, q: int
) -> np.ndarray:
    """Points per line of step (p, q), |q| <= p, in a padded byte mask.

    Row a, column b of the mask is byte pad + a*stride + b, for a in
    [0, height); each row's last `pad` bytes and the first `pad` bytes
    of the buffer are zero, so any column in [-pad, stride) reads the
    row's own cell or a zero.  Entry a*stride + u of the result counts
    the line through row a in [0, p), column u - (height//p)*max(q, 0).
    Along its height//p steps a line's column drifts by at most
    height <= pad, so every line stays in [-pad, stride) and reads no
    cell of another.  Those steps of every line are one strided view,
    summed in uint8 a chunk of 255 steps at a time; the height % p rows
    left over add one step to the first classes.
    """
    steps, rest = divmod(height, p)
    step = p * stride + q
    base = pad - steps * q if q > 0 else pad
    view = np.ndarray((steps, p * stride), np.uint8, mask, base, (step, 1))
    counts = np.zeros(p * stride, np.min_scalar_type(height))
    for t in range(0, steps, 255):
        counts += np.add.reduce(view[t : t + 255], axis=0, dtype=np.uint8)
    end = base + steps * step
    counts[: rest * stride] += mask[end : end + rest * stride]
    return counts


def _mask_lines(
    keys: np.ndarray, n: int, x0: int, y0: int, nx: int, ny: int, cols: np.ndarray
) -> _Lines:
    """The mask sweep of what `_intercept_lines` sweeps, read off the
    set's byte mask of the box.

    Row x - x0 of the mask holds column y - y0 (`_line_counts`, pad nx
    and stride nx + ny), and serves the directions with |vy| <= vx.
    The others read its transpose, row y - y0 holding column x - x0
    (pad ny, the same stride), built from it the first time one is
    swept.  A direction's lines are one `_line_counts` call in its
    mask, and its fullest lines are mapped back to c = vy*x - vx*y.
    """
    stride = nx + ny
    mask = np.zeros(nx + nx * stride, np.uint8)
    # key + base of its column is nx + (x - x0)*stride + (y - y0): the
    # one int64 temporary, freed once the mask is set
    flat = np.repeat(np.arange(nx) * (stride - n) + (nx - (x0 - 1) * n - (y0 - 1)), cols)
    flat += keys
    mask[flat] = 1
    del flat
    rows = _line_counts(mask, nx, stride, nx, 1, 0)[:ny]
    transposed = None

    def heaviest(d: Direction) -> tuple[int, int]:
        nonlocal transposed
        vx, vy = d.vx, d.vy
        if abs(vy) <= vx:
            # cell (a, b) is (x0 + a, y0 + b), and the line steps by (vx, vy)
            counts = _line_counts(mask, nx, stride, nx, vx, vy)
            A, B, shift = vy, -vx, (nx // vx) * max(vy, 0)
        else:
            if transposed is None:
                transposed = np.zeros(ny + ny * stride, np.uint8)
                cells = transposed[ny:].reshape(ny, stride)
                cells[:, :nx] = mask[nx:].reshape(nx, stride)[:, :ny].T
            # cell (a, b) is (x0 + b, y0 + a), and the line steps by
            # (vx, vy) or its reverse, so that its row grows
            p, q = (vy, vx) if vy > 0 else (-vy, -vx)
            counts = _line_counts(transposed, ny, stride, ny, p, q)
            A, B, shift = -vx, vy, (ny // p) * max(q, 0)
        # argmax and a lookup are faster than max on these sizes
        weight = counts[counts.argmax()]
        fullest = np.flatnonzero(counts == weight).tolist()
        c = min(A * (j // stride) + B * (j % stride - shift) for j in fullest)
        return int(weight), vy * x0 - vx * y0 + c

    return rows, heaviest


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
    nx, ny = x1 - x0 + 1, y1 - y0 + 1
    span = max(nx, ny) - 1
    # rows and columns are counted over the box, so a set in a far
    # corner gets histograms of its own size; ux and uy hold the
    # occupied ones
    lines = _mask_lines if _mask_pays(len(keys), nx, ny) else _intercept_lines
    rows, heaviest = lines(keys, n, x0, y0, nx, ny, cols)
    axis_max = int(max(cols.max(), rows.max()))
    ux, uy = np.flatnonzero(cols), np.flatnonzero(rows)

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
        heaviest,
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
