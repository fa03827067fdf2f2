"""The benchmark's own inputs and checks, written without nkline.

Everything here uses numpy and the standard library only, so a change to
the code under test can change neither an audit input nor the reference
an output is checked against.
"""

from __future__ import annotations

import hashlib
from math import gcd

import numpy as np


def directions_of_modulus(m: int) -> list[tuple[int, int]]:
    """Primitive (vx, vy), vx >= 1, with max(vx, |vy|) == m."""
    dirs = []
    for b in range(1, m + 1):
        if gcd(m, b) == 1:
            dirs += [(m, b), (m, -b)]
    for a in range(1, m):
        if gcd(a, m) == 1:
            dirs += [(a, m), (a, -m)]
    return dirs


def max_on_direction(xs: np.ndarray, ys: np.ndarray, vx: int, vy: int) -> int:
    """Largest number of the points on one line {vy*x - vx*y = c}."""
    c = vy * xs - vx * ys
    return int(np.bincount(c - c.min()).max())


def count_on_line(xs: np.ndarray, ys: np.ndarray, vx: int, vy: int, c: int) -> int:
    return int(np.count_nonzero(vy * xs - vx * ys == c))


def generic_max(xs: np.ndarray, ys: np.ndarray, n: int, max_modulus: int | None = None) -> int:
    """Exact largest count on a non-axis line, pruned by modulus: a line
    of modulus m holds at most (n-1)//m + 1 grid points, so the sweep
    stops once that cap cannot beat the best line found.  With
    `max_modulus`, only directions up to that modulus are swept."""
    best = 0
    for m in range(1, n):
        if (max_modulus is not None and m > max_modulus) or (n - 1) // m + 1 <= best:
            break
        for vx, vy in directions_of_modulus(m):
            best = max(best, max_on_direction(xs, ys, vx, vy))
    return best


def regularity_error(xs: np.ndarray, ys: np.ndarray, n: int, k: int) -> str | None:
    """None when the points are k*n distinct cells of [1,n]^2 with exactly
    k in every row and every column; otherwise what is wrong."""
    if len(xs) != k * n or len(ys) != k * n:
        return f"{len(xs)} points, want k*n = {k * n}"
    if len(xs) and (min(xs.min(), ys.min()) < 1 or max(xs.max(), ys.max()) > n):
        return f"a point lies outside [1,{n}]^2"
    if np.unique(xs * (n + 1) + ys).size != len(xs):
        return "duplicate points"
    cols = np.bincount(xs, minlength=n + 1)[1:]
    rows = np.bincount(ys, minlength=n + 1)[1:]
    if not (np.all(cols == k) and np.all(rows == k)):
        return f"row/column counts not all {k}: columns {cols.min()}..{cols.max()}, rows {rows.min()}..{rows.max()}"
    return None


def read_point_file(text: str) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, xs, ys) of an `nkline v1` file body, read with numpy."""
    lines = text.split("\n", 2)
    if lines[0] != "nkline v1" or len(lines) < 3:
        raise ValueError("not an nkline v1 file")
    fields = dict(tok.split("=", 1) for tok in lines[1].split())
    body = np.array(lines[2].split(), dtype=np.int64).reshape(-1, 2)
    return int(fields["n"]), body[:, 0].copy(), body[:, 1].copy()


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def block_pattern(k: int) -> list[list[int]]:
    """The 4x4 entry pattern: 2k/10 on both block diagonals, 3k/10 elsewhere."""
    return [
        [2 * k // 10 if (i == j or i + j == 3) else 3 * k // 10 for j in range(4)]
        for i in range(4)
    ]


def permuted_circulant_set(n: int, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A k-regular point set on [1,n]^2 built from the 4x4 entry pattern.

    Block (i, j) of side q = n/4 holds the circulant r-factor
    {(a, b): (b - a) mod q < r} with its rows and columns permuted by a
    permutation drawn from `seed`.  Every row and column of the grid
    then holds exactly k points.
    """
    if n % 4 or k % 10:
        raise ValueError("need 4 | n and 10 | k")
    q = n // 4
    rng = np.random.default_rng(seed)
    a, b = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    xs, ys = [], []
    for i, row in enumerate(block_pattern(k)):
        for j, r in enumerate(row):
            mask = (b - a) % q < r
            row_perm = rng.permutation(q)
            col_perm = rng.permutation(q)
            xs.append(i * q + 1 + row_perm[a[mask]])
            ys.append(j * q + 1 + col_perm[b[mask]])
    return np.concatenate(xs), np.concatenate(ys)


def write_point_file(n: int, k: int, seed: int, xs: np.ndarray, ys: np.ndarray) -> str:
    """`nkline v1` text: header, then one "x y" pair per line sorted by (x, y)."""
    order = np.lexsort((ys, xs))
    body = "".join(f"{x} {y}\n" for x, y in zip(xs[order].tolist(), ys[order].tolist()))
    return f"nkline v1\nn={n} k={k} reserve=unknown seed={seed}\n" + body


def probe() -> int:
    """Fixed work in the program's three styles, timed beside every op to
    measure how fast the machine runs at that moment: a pure-Python loop
    of list and bytearray lookups and swaps (like the switch chain), large
    sets of tuples and adjacency lists (like PointSet and the matcher),
    and small numpy bincounts (like the verifier sweep)."""
    rng = np.random.default_rng(12345)
    m, r = 100, 24
    rows = [i // r * m for i in range(m * r)]
    cols = [i % m for i in range(m * r)]
    present = bytearray(m * m)
    for row, col in zip(rows, cols):
        present[row + col] = 1
    # all in small chunks, so the probe adds little to peak memory
    for _ in range(12):
        draws = rng.integers(0, m * r, size=20_000).tolist()
        for i, j in zip(draws[0::2], draws[1::2]):
            oa, ob, ca, cb = rows[i], rows[j], cols[i], cols[j]
            if oa != ob and ca != cb and not present[oa + cb] and not present[ob + ca]:
                present[oa + ca] = present[ob + cb] = 0
                present[oa + cb] = present[ob + ca] = 1
                cols[i], cols[j] = cb, ca
    n, acc = 400, 0
    for _ in range(10):
        xs = rng.integers(1, n + 1, size=6_000).tolist()
        ys = rng.integers(1, n + 1, size=6_000).tolist()
        cells = frozenset(zip(xs, ys))
        adj = [[] for _ in range(n + 1)]
        for x, y in sorted(cells):
            adj[x].append(y)
        for x, y in list(cells)[::3]:
            adj[x].remove(y)
        acc += len(cells - frozenset(zip(ys, xs))) + sum(map(len, adj))
    xs = rng.integers(1, 201, size=12_000)
    ys = rng.integers(1, 201, size=12_000)
    return acc + sum(max_on_direction(xs, ys, vx, vy) for vx in range(1, 36) for vy in range(1, 36))
