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

Two feeders hand a set to the sweep.  `verify` takes a PointSet, and
decodes its keys by column runs, not into coordinate arrays: the
sorted keys of column x are those in [(x-1)*n, x*n), so one
`searchsorted` gives every column's count, and a `repeat` of one value
per column by those counts gives each key what it needs from its
column.  `_verify_cells` takes a construction's output as its n x n
bool cells, and counts their rows and columns in two uint8 reductions,
which give the box and the number of points with no key read.  Two
sweeps count the lines, with the same report.  The mask sweep runs
whenever its two masks, (nx + ny)^2 bytes, fit in the ~18 bytes a point
that the intercept sweep's offsets and its `bincount` copy take
(`_masks_fit`); otherwise the intercept sweep runs.  Cells bound for
the intercept sweep are read into a PointSet first, and that set goes
back to the caller with its report; the cells come alone in a list
that `_verify_cells` empties, so they can be freed before that sweep.

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

The mask sweep (dense sets) runs over a zero-padded uint8 mask of the
box (`_padded_mask`), a row per x, with a stride of nx + ny bytes, so
that each row's right padding is the next row's left padding; that
layout is known to this module alone.  `verify` scatters the keys into
it a chunk of columns at a time, so that its int64 index stays
bounded, and `_verify_cells` copies the box's cells into it in one 2-D
copy.  The lines of a direction (vx, vy) with |vy| <= vx are then one
strided view of the mask, vx classes of x by their steps by offsets,
summed over the steps in uint8 chunks of 255 with no intercept
computed (`_line_counts`); a direction with |vy| > vx reads the
transposed mask, built the first time the walk reaches one.  Only a
direction whose fullest lines beat the best found so far maps them back
to their intercepts; the walk reads no other direction's witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isqrt
from typing import Callable, Optional, Union

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


def _masks_fit(points: int, nx: int, ny: int) -> bool:
    """Whether the verifier sweeps a set of `points` points whose bounding
    box is nx x ny through its byte masks (`_mask_lines`) rather than
    through its intercepts (`_intercept_lines`): whether the two masks,
    (nx + ny)^2 bytes, fit in the ~18 bytes a point of the intercept
    sweep's offsets and its `bincount` copy.  Both sweeps give the same
    report.
    """
    return (nx + ny) ** 2 <= 18 * points


# the number of points whose int64 scatter index `verify` builds at once
_SCATTER_CHUNK = 1 << 16

# heaviest(d, best) of one sweep: the weight of d's fullest line, and
# its smallest intercept when that weight beats best
_Heaviest = Callable[[Direction, int], tuple[int, Optional[int]]]


def _intercept_lines(
    keys: np.ndarray, n: int, x0: int, y0: int, nx: int, ny: int, cols: np.ndarray
) -> tuple[np.ndarray, _Heaviest]:
    """The intercept sweep of the set `keys` on the nx x ny box at
    (x0, y0), whose column x holds cols[x - x0] points: one `bincount`
    of the offset intercepts per direction, whose first maximum gives
    the witness whatever `best`.  Returns (rows, heaviest), rows[y - y0]
    counting the points of row y."""
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

    def heaviest(d: Direction, best: int) -> tuple[int, int]:
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


def _line_counts(mask: np.ndarray, stride: int, height: int, p: int, q: int) -> np.ndarray:
    """Points per line of step (p, q), |q| <= p, in a padded byte mask.

    Row a, column b of the mask is byte height + a*stride + b, for a in
    [0, height); each row's last `height` bytes and the first `height`
    bytes of the buffer are zero, so any column in [-height, stride)
    reads the row's own cell or a zero.  Entry a*stride + u of the
    result counts the line through row a in [0, p), column
    u - (height//p)*max(q, 0).  Along its height//p steps a line's
    column drifts by at most height, so every line stays in
    [-height, stride) and reads no cell of another.  Those steps of
    every line are one strided view, summed in uint8 a chunk of 255
    steps at a time; the height % p rows left over add one step to the
    first classes.  Below 255 steps no line holds more than 255 points,
    and the one uint8 reduce is the counts.
    """
    steps, rest = divmod(height, p)
    step = p * stride + q
    base = height - steps * q if q > 0 else height
    view = np.ndarray((steps, p * stride), np.uint8, mask, base, (step, 1))
    if steps < 255:
        counts = np.add.reduce(view, axis=0, dtype=np.uint8)
    else:
        counts = np.zeros(p * stride, np.min_scalar_type(height))
        for t in range(0, steps, 255):
            counts += np.add.reduce(view[t : t + 255], axis=0, dtype=np.uint8)
    end = base + steps * step
    counts[: rest * stride] += mask[end : end + rest * stride]
    return counts


def _padded_mask(nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """A zero byte mask of an nx x ny box in the layout `_mask_lines`
    reads (`_line_counts`, height nx and stride nx + ny), and the 2-D
    view of its cells, [x - x0, y - y0] for the point (x, y)."""
    stride = nx + ny
    mask = np.zeros(nx + nx * stride, np.uint8)
    return mask, mask[nx:].reshape(nx, stride)[:, :ny]


def _mask_lines(mask: np.ndarray, x0: int, y0: int, nx: int, ny: int) -> _Heaviest:
    """The mask sweep's heaviest(d), read off the set's padded byte mask
    of the nx x ny box at (x0, y0) (`_padded_mask`).

    Row x - x0 of the mask holds column y - y0, and serves the
    directions with |vy| <= vx.  The others read its transpose, row
    y - y0 holding column x - x0 (height ny, the same stride), built
    from it the first time one is swept.  A direction's lines are one
    `_line_counts` call in its mask; only a direction whose fullest
    lines beat `best` maps them back to c = vy*x - vx*y.
    """
    stride = nx + ny
    transposed = None

    def heaviest(d: Direction, best: int) -> tuple[int, Optional[int]]:
        nonlocal transposed
        vx, vy = d.vx, d.vy
        if abs(vy) <= vx:
            # cell (a, b) is (x0 + a, y0 + b), and the line steps by (vx, vy)
            counts = _line_counts(mask, stride, nx, vx, vy)
            A, B, shift = vy, -vx, (nx // vx) * max(vy, 0)
        else:
            if transposed is None:
                transposed, cells = _padded_mask(ny, nx)
                cells[...] = mask[nx:].reshape(nx, stride)[:, :ny].T
            # cell (a, b) is (x0 + b, y0 + a), and the line steps by
            # (vx, vy) or its reverse, so that its row grows
            p, q = (vy, vx) if vy > 0 else (-vy, -vx)
            counts = _line_counts(transposed, stride, ny, p, q)
            A, B, shift = -vx, vy, (ny // p) * max(q, 0)
        # argmax and a lookup are faster than max on these sizes
        weight = int(counts[counts.argmax()])
        if weight <= best:
            return weight, None
        fullest = np.flatnonzero(counts == weight).tolist()
        c = min(A * (j // stride) + B * (j % stride - shift) for j in fullest)
        return weight, vy * x0 - vx * y0 + c

    return heaviest


def _check_bounds(k: int, reserve: int) -> None:
    _check_int(k=k, reserve=reserve)
    if reserve < 0:
        raise ValueError("reserve must be >= 0")


def _report(
    n: int, k: int, reserve: int, cols: np.ndarray, rows: np.ndarray, heaviest: _Heaviest
) -> VerificationReport:
    """The report of the sweep `heaviest` of a set on [1,n]^2 whose
    bounding box has columns and rows holding cols and rows points."""
    span = max(len(cols), len(rows)) - 1
    axis_max = int(max(cols.max(), rows.max()))
    # rows and columns are counted over the box, so a set in a far
    # corner gets histograms of its own size; ux and uy hold the
    # occupied ones
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


def verify(points: PointSet, k: int, reserve: int = 0) -> VerificationReport:
    """Check |S ∩ line| <= k on every line and <= k - reserve on every
    generic line.  A failing set yields a failing report, never an error.
    """
    _check_bounds(k, reserve)
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
    if not _masks_fit(len(keys), nx, ny):
        rows, heaviest = _intercept_lines(keys, n, x0, y0, nx, ny, cols)
        return _report(n, k, reserve, cols, rows, heaviest)
    stride = nx + ny
    mask, _ = _padded_mask(nx, ny)
    # key + base of its column is nx + (x - x0)*stride + (y - y0), an
    # int64 index, built for a chunk of columns of at most
    # _SCATTER_CHUNK points at a time
    base = np.arange(nx) * (stride - n) + (nx - (x0 - 1) * n - (y0 - 1))
    width = max(1, _SCATTER_CHUNK // ny)
    for a in range(0, nx, width):
        flat = np.repeat(base[a : a + width], cols[a : a + width])
        flat += keys[runs[a] : runs[min(a + width, nx)]]
        mask[flat] = 1
    del flat
    rows = _line_counts(mask, stride, nx, 1, 0)[:ny]
    return _report(n, k, reserve, cols, rows, _mask_lines(mask, x0, y0, nx, ny))


def _verify_cells(
    slot: list[np.ndarray], k: int, reserve: int
) -> tuple[VerificationReport, Union[np.ndarray, PointSet]]:
    """`verify(PointSet.from_mask(cells), k, reserve)` of the n x n bool
    mask alone in the list `slot`, [x-1, y-1] for the point (x, y), and
    the set as the sweep held it: the cells, or the PointSet it read
    them into.

    Its columns and rows are counted in uint8 reductions; the counts
    give the bounding box and the number of points.  When the mask
    sweep runs (`_masks_fit`) the box's cells are copied into its padded
    mask in one 2-D copy, and no key is read.  Otherwise the cells are
    read into a PointSet, which takes the intercept sweep of `verify`.
    The cells are taken out of `slot`, so that a caller holding no other
    reference has them freed before that sweep: the set is then held as
    its keys alone.
    """
    _check_bounds(k, reserve)
    cells = slot.pop()
    n, u8 = len(cells), cells.view(np.uint8)
    dtype = np.min_scalar_type(n)
    cols = np.add.reduce(u8, axis=1, dtype=dtype)
    rows = np.add.reduce(u8, axis=0, dtype=dtype)
    ux, uy = np.flatnonzero(cols), np.flatnonzero(rows)
    # the box's 0-based corners; an empty set gets the box at (1, 1)
    a0, a1 = (int(ux[0]), int(ux[-1])) if len(ux) else (0, 0)
    b0, b1 = (int(uy[0]), int(uy[-1])) if len(uy) else (0, 0)
    nx, ny = a1 - a0 + 1, b1 - b0 + 1
    if not _masks_fit(int(cols.sum()), nx, ny):
        points = PointSet.from_mask(cells)
        del cells, u8
        return verify(points, k, reserve), points
    mask, box = _padded_mask(nx, ny)
    box[...] = u8[a0 : a1 + 1, b0 : b1 + 1]
    heaviest = _mask_lines(mask, a0 + 1, b0 + 1, nx, ny)
    return _report(n, k, reserve, cols[a0 : a1 + 1], rows[b0 : b1 + 1], heaviest), cells


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
    above sqrt(N) (two would exceed N), which flips the sign.  rad[d]
    divides d <= N, so rad and d are held in the narrowest integer type
    that holds N (`grid._narrowest_int`)."""
    dtype = _narrowest_int(N)
    mu = np.ones(N + 1, dtype=np.int8)
    rad = np.ones(N + 1, dtype=dtype)
    mu[0] = 0
    for p in range(2, isqrt(N) + 1):
        if rad[p] == 1:  # no smaller prime divides p
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
            rad[p::p] *= p
    mu[rad != np.arange(N + 1, dtype=dtype)] *= -1
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
