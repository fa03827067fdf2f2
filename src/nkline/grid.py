"""Core grid domain: point sets, primitive directions swept by modulus
class, and block-density matrices with an exact expected-load evaluator.

A point set on [1,n]^2 is one sorted int64 array of keys
(x-1)*n + (y-1); the same form holds a bipartite factor on rows x
columns, from the sampler to the point file.  Its n x n bool mask, read
by `PointSet.from_mask` and written by `PointSet.mask`, is the one dense
form of a whole set.  A construction's output reaches the verifier as
that mask, and its keys are read once, for the set that is kept
(`construct._certify`); the verifier's mask sweep holds a padded uint8
mask of the set's bounding box of its own (`secants._padded_mask`).

All line identities are integer-only: a line with primitive direction
(vx, vy) is the level set of c = vy*x - vx*y.  One heaviest-line sweep
serves the verifier (the fullest line of a set per direction) and
the expected load (per direction, one block histogram shifted to each
block offset and scaled by the block entries); weights are integers,
summed exactly, and a load is the exact fraction weight / block_side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Optional

import numpy as np

# largest grid side whose keys (x-1)*n + (y-1) fit in int64
MAX_SIDE = 3_037_000_499


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _narrowest_int(bound: int) -> np.dtype:
    """The narrowest of int16, int32 and int64 that holds every integer
    in [-bound, bound]."""
    for t in (np.int16, np.int32):
        if bound <= np.iinfo(t).max:
            return np.dtype(t)
    return np.dtype(np.int64)


@dataclass(frozen=True)
class Direction:
    """Primitive direction of a non-axis-parallel lattice line.

    vx >= 1, vy != 0, gcd(vx, |vy|) = 1.  The modulus max(vx, |vy|)
    caps how many grid points a line of this direction can hold:
    at most (n-1)//modulus + 1.
    """

    vx: int
    vy: int

    def __post_init__(self) -> None:
        if self.vx < 1:
            raise ValueError(f"vx must be positive, got {self.vx}")
        if self.vy == 0:
            raise ValueError("vy must be nonzero")
        if gcd(self.vx, abs(self.vy)) != 1:
            raise ValueError(f"({self.vx}, {self.vy}) is not primitive")

    @property
    def modulus(self) -> int:
        return max(self.vx, abs(self.vy))

    def intercept(self, x: int, y: int) -> int:
        return self.vy * x - self.vx * y


def line_points(n: int, direction: Direction, c: int) -> list[tuple[int, int]]:
    """All grid points of [1,n]^2 on the line {vy*x - vx*y = c}, in x order."""
    vx, vy = direction.vx, direction.vy
    s = pow(vy, -1, vx)  # vy*s - vx*t = 1 for the whole t below: (x0, y0) is on the line
    x0, y0 = s * c, (vy * s - 1) // vx * c
    lo = _ceil_div(1 - x0, vx)
    hi = (n - x0) // vx
    if vy > 0:
        lo = max(lo, _ceil_div(1 - y0, vy))
        hi = min(hi, (n - y0) // vy)
    else:
        lo = max(lo, _ceil_div(n - y0, vy))
        hi = min(hi, (1 - y0) // vy)
    if lo > hi:
        return []
    return [(x0 + u * vx, y0 + u * vy) for u in range(lo, hi + 1)]


def _exact_int64(values, what: str) -> np.ndarray:
    """`values` as an int64 array.  Integer arrays pass as they are, and
    floats only when every one is a whole number inside the int64 range;
    anything else (1.5, NaN, ±inf, 1e20, bools, strings) raises
    ValueError instead of being truncated."""
    a = np.asarray(values)
    if a.dtype.kind in "iu":
        return a.astype(np.int64, copy=False)
    if a.dtype.kind == "f":
        # NaN fails every comparison, so it lands in `bad` with ±inf
        bad = np.flatnonzero(~(np.abs(a) < 2.0**63) | (a != np.trunc(a)))
        if not bad.size:
            return a.astype(np.int64)
        raise ValueError(f"{what} {a.flat[bad[0]]} is not a 64-bit integer")
    raise ValueError(f"{what} of dtype {a.dtype} is not a 64-bit integer")


def _check_int(**values) -> None:
    """Reject each named value that is not an int or a numpy integer;
    bools and whole floats are rejected too."""
    for name, v in values.items():
        if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {v!r}")


class PointSet:
    """An immutable subset of [1,n]^2, stored as the read-only array of
    its unique keys (x-1)*n + (y-1) in ascending order, which is (x, y)
    order.  Memory grows with the number of points, not with n^2.
    """

    __slots__ = ("_n", "_keys")

    def __init__(self, n: int, keys):
        self._take(n, _exact_int64(keys, "key").reshape(-1), copy=True)

    @classmethod
    def _adopt(cls, n: int, keys: np.ndarray) -> "PointSet":
        """`PointSet(n, keys)` for a 1-d int64 array that nothing else
        holds: keys in order become the set's own, without a copy."""
        out = cls.__new__(cls)
        out._take(n, keys, copy=False)
        return out

    def _take(self, n: int, keys: np.ndarray, copy: bool) -> None:
        if not 1 <= n <= MAX_SIDE:
            raise ValueError(f"grid side must be in [1, {MAX_SIDE}], got {n}")
        # keys that arrive strictly increasing skip the sort, and are
        # copied if the caller keeps them
        if (keys[1:] <= keys[:-1]).any():
            keys = np.unique(keys)
        elif copy:
            keys = keys.copy()
        if keys.size and (keys[0] < 0 or keys[-1] >= n * n):
            raise ValueError(f"key outside [0, {n * n}) on a side-{n} grid")
        keys.flags.writeable = False
        self._n = n
        self._keys = keys

    @classmethod
    def from_xy(cls, n: int, xs, ys) -> "PointSet":
        """The points (xs[i], ys[i]); repeated points collapse."""
        xs = _exact_int64(xs, "coordinate")
        ys = _exact_int64(ys, "coordinate")
        bad = np.flatnonzero((xs < 1) | (xs > n) | (ys < 1) | (ys > n))
        if bad.size:
            raise ValueError(f"point ({xs[bad[0]]}, {ys[bad[0]]}) outside [1,{n}]^2")
        return cls(n, (xs - 1) * n + (ys - 1))

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "PointSet":
        """The set cells of a non-empty square bool mask, [x-1, y-1] for
        point (x, y): its row-major flat nonzero indices are the keys,
        already sorted and unique, so they are adopted without a check or
        a copy."""
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.ndim != 2 or not 0 < len(mask) == mask.shape[1]:
            raise ValueError(f"need a non-empty square bool mask, got {mask.dtype} {mask.shape}")
        out = cls.__new__(cls)
        out._n, out._keys = len(mask), np.flatnonzero(mask)
        out._keys.flags.writeable = False
        return out

    @classmethod
    def from_points(cls, n: int, points: Iterable[tuple[int, int]]) -> "PointSet":
        xy = np.array(list(points)).reshape(-1, 2)
        return cls.from_xy(n, xy[:, 0], xy[:, 1])

    @property
    def n(self) -> int:
        return self._n

    @property
    def keys(self) -> np.ndarray:
        return self._keys

    def xy(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays (xs, ys), sorted by (x, y)."""
        # one floor-divide by a scalar, then y - 1 = key - (x - 1) * n, all
        # in place: np.divmod is about 4x slower and each copy page-faults
        xs = self._keys // self._n
        ys = xs * -self._n
        ys += self._keys
        xs += 1
        ys += 1
        return xs, ys

    def mask(self) -> np.ndarray:
        """The n x n bool mask that `from_mask` reads: [x-1, y-1] is set
        for each point (x, y)."""
        cells = np.zeros(self._n * self._n, dtype=bool)
        cells[self._keys] = True
        return cells.reshape(self._n, self._n)

    def __len__(self) -> int:
        return self._keys.size

    def __contains__(self, point: tuple[int, int]) -> bool:
        x, y = point
        if not (1 <= x <= self._n and 1 <= y <= self._n):
            return False
        key = (x - 1) * self._n + (y - 1)
        i = np.searchsorted(self._keys, key)
        return bool(i < self._keys.size and self._keys[i] == key)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PointSet)
            and self._n == other._n
            and np.array_equal(self._keys, other._keys)
        )

    def __hash__(self) -> int:
        return hash((self._n, self._keys.tobytes()))

    def __repr__(self) -> str:
        return f"PointSet(n={self._n}, size={len(self)})"

    def sorted_xy(self) -> list[tuple[int, int]]:
        """Points as (x, y) tuples sorted ascending; for small callers."""
        xs, ys = self.xy()
        return list(zip(xs.tolist(), ys.tolist()))

    def is_regular(self, r: int) -> bool:
        """Exactly r points in every row and every column."""
        return len(self) == r * self._n and all(
            (np.bincount(v, minlength=self._n + 1)[1:] == r).all() for v in self.xy()
        )


@dataclass(frozen=True)
class FeasibilityMatrix:
    """m x m integer block-density matrix; entry (i, j) is the per-row
    count prescribed for block (i, j) of an m x m decomposition with
    blocks of side `block_side`.  `entries` is stored as int tuples.
    """

    m: int
    block_side: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_int(m=self.m, block_side=self.block_side)
        if self.m < 1 or self.block_side < 1:
            raise ValueError("m and block_side must be positive")
        if len(self.entries) != self.m or any(len(row) != self.m for row in self.entries):
            raise ValueError(f"entries must be {self.m}x{self.m}")
        entries = _exact_int64(self.entries, "entry")
        bad = entries[(entries < 0) | (entries > self.block_side)]
        if bad.size:
            raise ValueError(f"entry {bad[0]} outside [0, {self.block_side}] (block side)")
        object.__setattr__(self, "entries", tuple(map(tuple, entries.tolist())))

    @property
    def n(self) -> int:
        return self.m * self.block_side

    def row_sums(self) -> list[int]:
        return [sum(row) for row in self.entries]

    def col_sums(self) -> list[int]:
        return [sum(row[j] for row in self.entries) for j in range(self.m)]

    @property
    def max_entry(self) -> int:
        return max(max(row) for row in self.entries)


def _scaled_matrix(n: int, k: int, pattern: list[list[int]]) -> FeasibilityMatrix:
    """The m x m matrix (k/10) * pattern on blocks of side n/m.

    Requires m | n, 10 | k, k >= 0 and every entry at most the block
    side n/m.
    """
    m = len(pattern)
    if n % m != 0:
        raise ValueError(f"n={n} must be divisible by {m}")
    if k % 10 != 0 or k < 0:
        raise ValueError(f"k={k} must be a nonnegative multiple of 10")
    u, q = k // 10, n // m
    top = u * max(map(max, pattern))
    if top > q:
        raise ValueError(f"k={k} exceeds 5n/6={Fraction(5 * n, 6)}: entry {top} > block side {q}")
    return FeasibilityMatrix(m, q, [[u * v for v in row] for row in pattern])


def feasibility_matrix_4x4(n: int, k: int) -> FeasibilityMatrix:
    """The 4x4 matrix with 2k/10 on the two block diagonals and 3k/10
    elsewhere.  Every row and column sums to k.

    Requires 4 | n, 10 | k and k <= 5n/6 (else the off-diagonal entry
    3k/10 would exceed the block side n/4).
    """
    return _scaled_matrix(n, k, [[2, 3, 3, 2], [3, 2, 2, 3], [3, 2, 2, 3], [2, 3, 3, 2]])


def feasibility_matrix_3x3(n: int, k: int) -> FeasibilityMatrix:
    """The 3x3 matrix (k/10) * [[3,4,3],[4,2,4],[3,4,3]].

    Requires 3 | n, 10 | k and k <= 5n/6 (entry 4k/10 <= n/3).
    """
    return _scaled_matrix(n, k, [[3, 4, 3], [4, 2, 4], [3, 4, 3]])


def expected_load(
    matrix: FeasibilityMatrix,
    direction: Direction,
    c: int,
) -> Fraction:
    """Exact expected number of selected points on one generic secant:
    sum over blocks (i, j) of entries[i][j] / block_side * |block ∩ line|.
    """
    pts = line_points(matrix.n, direction, c)
    if len(pts) < 2:
        raise ValueError(
            f"line (vx={direction.vx}, vy={direction.vy}, c={c}) meets the grid in {len(pts)} point(s)"
        )
    q = matrix.block_side
    entries = matrix.entries
    weight = 0
    for x, y in pts:
        weight += entries[(x - 1) // q][(y - 1) // q]
    return Fraction(weight, q)


# the moduli whose direction tables are built once per process: at most
# 4M directions each, ~300 in all, whatever n or the number of sweeps
_TABLED_MODULI = 16
_TABLES: dict[int, tuple[Direction, ...]] = {}


def _directions_of_modulus(M: int) -> tuple[Direction, ...]:
    """The primitive directions of modulus M, ascending by (vx, vy);
    kept for reuse when M <= _TABLED_MODULI."""
    if M in _TABLES:
        return _TABLES[M]
    if M < 1:
        raise ValueError(f"modulus must be >= 1, got {M}")
    dirs = []
    for vx in range(1, M):
        if gcd(vx, M) == 1:
            dirs += (Direction(vx, -M), Direction(vx, M))
    vys = [b for b in range(1, M + 1) if gcd(M, b) == 1]
    dirs += [Direction(M, -b) for b in reversed(vys)]
    dirs += [Direction(M, b) for b in vys]
    dirs = tuple(dirs)
    if M <= _TABLED_MODULI:
        _TABLES[M] = dirs
    return dirs


def _heaviest_line(
    n: int,
    cap: Callable[[int], int],
    heaviest: Callable[[Direction, int], tuple[int, Optional[int]]],
    class_cap: Optional[Callable[[int], int]] = None,
) -> tuple[int, Optional[tuple[Direction, int]], int]:
    """Heaviest generic line of [1,n]^2 under a line weight, over the
    primitive directions walked in (modulus, vx, vy) order.

    `heaviest(d, best)` returns (weight, c): the largest weight of a
    line of direction d and, when that weight beats `best` (the
    heaviest found so far), the smallest intercept c = vy*x - vx*y of
    a line of that weight.  A weight of at most `best` is never a
    witness, so its c is not read and may be skipped (None).
    `cap(M)` bounds the weight of every line of modulus M or more; the
    walk stops at the first class whose cap cannot beat the best weight
    so far.  `class_cap(M)`, when given, bounds the lines of modulus M
    alone, and a class it cannot lift above the best is skipped.  Either
    way the result equals that of the full walk.  The witness is the
    first direction to reach the maximum and, within it, the smallest
    intercept.  Returns (best weight, witness (direction, intercept) or
    None, number of directions swept, one `heaviest` call each).
    """
    best, witness, swept = 0, None, 0
    for M in range(1, n):
        if cap(M) <= best:
            break
        if class_cap is not None and class_cap(M) <= best:
            continue
        for d in _directions_of_modulus(M):
            weight, c = heaviest(d, best)
            swept += 1
            if weight > best:
                best, witness = weight, (d, c)
    return best, witness, swept


def _heaviest_of(weights: np.ndarray, c0: int) -> tuple[int, int]:
    """(weight, intercept) of the first heaviest line of a histogram
    whose entry i is the weight of the line c = c0 + i."""
    top = int(np.argmax(weights))
    return int(weights[top]), c0 + top


def _block_histogram(matrix: FeasibilityMatrix) -> Callable[[Direction, int], tuple[int, int]]:
    """Per direction, the weight of every line of the full grid: each
    grid point weighs the entry of its block, and a line with fewer
    than 2 grid points weighs 0.

    With x = i*q + u and y = j*q + w, u and w in [1, q], the intercept
    is c = (vy*i - vx*j)*q + (vy*u - vx*w).  So the lines of a direction
    are one q x q block histogram of vy*u - vx*w, shifted by q times
    each distinct block offset s = vy*i - vx*j and scaled by the summed
    entries of the blocks at s; the same shifts scaled by the number of
    blocks at s count the grid points per line.  Sums are exact int64,
    and every direction's witness is found, whatever `best`.  A
    modulus-M direction takes O(q^2 + M*n) transient memory, not O(n^2).
    """
    m, q = matrix.m, matrix.block_side
    entries = np.asarray(matrix.entries, dtype=np.int64).ravel()
    i, j = np.divmod(np.arange(m * m), m)
    u = np.arange(1, q + 1, dtype=np.int64)

    def heaviest(d: Direction, best: int) -> tuple[int, int]:
        t0 = (d.vy if d.vy > 0 else d.vy * q) - d.vx * q
        block = np.bincount(((d.vy * u - t0)[:, None] - d.vx * u).ravel())
        s = d.vy * i - d.vx * j
        s0 = int(s.min())
        s -= s0
        blocks_at = np.bincount(s)
        entries_at = np.zeros_like(blocks_at)
        np.add.at(entries_at, s, entries)
        size = (blocks_at.size - 1) * q + block.size
        weights = np.zeros(size, dtype=np.int64)
        counts = np.zeros(size, dtype=np.int64)
        for shift in np.flatnonzero(blocks_at).tolist():
            at = slice(shift * q, shift * q + block.size)
            weights[at] += entries_at[shift] * block
            counts[at] += blocks_at[shift] * block
        weights[counts < 2] = 0
        return _heaviest_of(weights, s0 * q + t0)

    return heaviest


def _heaviest_expected_line(
    matrix: FeasibilityMatrix,
) -> tuple[Fraction, Optional[tuple[Direction, int]]]:
    """The maximum expected load over all generic secants and its witness
    (direction, intercept), or None on a grid with no generic line.

    The heaviest-line sweep of the verifier, run over the full grid
    with each point weighted by the entry of its block
    (`_block_histogram`): a line's load is its weight over the common
    denominator block_side.  A modulus-M line holds at most
    (n-1)//M + 1 grid points, so its weight is at most
    max_entry * ((n-1)//M + 1), and the sweep stops once that cap
    cannot beat the heaviest line found.  The witness is the first
    heaviest direction in (modulus, vx, vy) order and its smallest
    heaviest intercept.

    Each direction takes O(q^2 + M*n) transient memory (M its
    modulus) for the block histogram and the direction's line weights;
    no n x n grid is built.
    """
    n = matrix.n
    rmax = matrix.max_entry
    best_w, best_line, _ = _heaviest_line(
        n, lambda M: rmax * ((n - 1) // M + 1), _block_histogram(matrix)
    )
    return Fraction(best_w, matrix.block_side), best_line


def max_expected_load(matrix: FeasibilityMatrix) -> Fraction:
    """Exact maximum of the expected load over all generic secants
    (`_heaviest_expected_line`)."""
    return _heaviest_expected_line(matrix)[0]


@dataclass(frozen=True)
class FeasibilityCheck:
    """Outcome of a feasibility test.  On failure, `witness` is either
    ("row", i) / ("col", j) for a bad marginal sum, or
    ("line", direction, c, load) for an overloaded secant."""

    ok: bool
    witness: Optional[tuple] = None


def is_feasible(matrix: FeasibilityMatrix, k: int, delta) -> FeasibilityCheck:
    """True iff every row and column of the matrix sums to k and the
    maximum expected secant load is at most delta*k (a grid with no
    generic line has no load to bound).  Pass delta as a Fraction (or
    int/str) for an exact comparison.
    """
    delta = Fraction(delta)
    if delta >= 1:
        raise ValueError(f"delta must be < 1, got {delta}")
    for i, s in enumerate(matrix.row_sums(), start=1):
        if s != k:
            return FeasibilityCheck(False, ("row", i))
    for j, s in enumerate(matrix.col_sums(), start=1):
        if s != k:
            return FeasibilityCheck(False, ("col", j))
    load, line = _heaviest_expected_line(matrix)
    if line is not None and load > delta * k:
        d, c = line
        return FeasibilityCheck(False, ("line", d, c, load))
    return FeasibilityCheck(True)
