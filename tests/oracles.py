"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's sweep/branch-and-bound code paths:
lines are found by enumerating point pairs, loads by stepping along a
direction, counts by inverting triangular pair counts.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt


def pair_line_key(p, q):
    """Canonical (vx, vy, c) for the line through two distinct points,
    or None if the line is axis-parallel."""
    dx = q[0] - p[0]
    dy = q[1] - p[1]
    if dx == 0 or dy == 0:
        return None
    if dx < 0:
        dx, dy = -dx, -dy
    g = gcd(dx, abs(dy))
    vx, vy = dx // g, dy // g
    return vx, vy, vy * p[0] - vx * p[1]


def generic_line_sizes(points):
    """Map line key -> number of the given points on that line, for every
    generic line spanned by at least two of the points.

    Counts pairs per line and inverts t = c*(c-1)/2.
    """
    pts = sorted(points)
    pair_counts: dict[tuple, int] = {}
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            key = pair_line_key(pts[i], pts[j])
            if key is not None:
                pair_counts[key] = pair_counts.get(key, 0) + 1
    sizes = {}
    for key, t in pair_counts.items():
        c = (1 + isqrt(1 + 8 * t)) // 2
        assert c * (c - 1) // 2 == t, "pair count is not triangular"
        sizes[key] = c
    return sizes


def brute_generic_max(points):
    """(max points on a generic line with >= 2 of them, witness key)."""
    sizes = generic_line_sizes(points)
    if not sizes:
        return 0, None
    key = max(sizes, key=lambda k: (sizes[k], k))
    return sizes[key], key


def walk_line(n, vx, vy, x, y):
    """Grid points obtained by stepping (vx, vy) from (x, y), plus the
    backward extension; (x, y) need not be the start of the line."""
    pts = []
    cx, cy = x, y
    while 1 <= cx <= n and 1 <= cy <= n:
        pts.append((cx, cy))
        cx, cy = cx + vx, cy + vy
    cx, cy = x - vx, y - vy
    while 1 <= cx <= n and 1 <= cy <= n:
        pts.append((cx, cy))
        cx, cy = cx - vx, cy - vy
    return sorted(pts)


def brute_max_expected_load(matrix):
    """Maximum expected load over all generic secants of [1,n]^2 by pair
    enumeration: every line through two grid points, each walked once."""
    n = matrix.n
    q = matrix.block_side
    grid_pts = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    seen = set()
    best = Fraction(0)
    for i in range(len(grid_pts)):
        px, py = grid_pts[i]
        for j in range(i + 1, len(grid_pts)):
            key = pair_line_key((px, py), grid_pts[j])
            if key is None or key in seen:
                continue
            seen.add(key)
            vx, vy, _ = key
            w = 0
            for x, y in walk_line(n, vx, vy, px, py):
                w += matrix.entries[(x - 1) // q][(y - 1) // q]
            load = Fraction(w, q)
            if load > best:
                best = load
    return best


def expected_load_by_scan(matrix, vx, vy, c):
    """Expected load of one line, found by scanning all n^2 grid points
    for the intercept identity (independent of the gcd-based walker)."""
    n = matrix.n
    q = matrix.block_side
    total = Fraction(0)
    hits = 0
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            if vy * x - vx * y == c:
                total += Fraction(matrix.entries[(x - 1) // q][(y - 1) // q], q)
                hits += 1
    assert hits >= 2, "not a secant"
    return total


def grid_line_sizes(n):
    """Sizes of all generic secants of the full grid [1,n]^2, via pair
    enumeration over grid points."""
    pts = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    return generic_line_sizes(pts)


def census_by_pairs(n, j):
    """Number of generic secants of [1,n]^2 holding >= j grid points."""
    sizes = grid_line_sizes(n)
    return sum(1 for c in sizes.values() if c >= j)


def all_r_factors(m, r):
    """Every r-regular cell set on [1,m]^2, by row-by-row enumeration of
    r-subsets of columns with column capacities; independent of the
    sampler's chain."""
    rows = [frozenset(c) for c in combinations(range(1, m + 1), r)]
    out = []

    def extend(a, cells, col_free):
        if a > m:
            out.append(frozenset(cells))
            return
        for row in rows:
            if all(col_free[b] > 0 for b in row):
                for b in row:
                    col_free[b] -= 1
                extend(a + 1, cells + [(a, b) for b in row], col_free)
                for b in row:
                    col_free[b] += 1

    extend(1, [], {b: r for b in range(1, m + 1)})
    return out
