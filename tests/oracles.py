"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's sweep/branch-and-bound code paths:
lines are found by enumerating point pairs, loads by stepping along a
direction, counts by inverting triangular pair counts, and the census
by a double loop over coprime directions.  The reference
matcher is the list-based Hopcroft-Karp the bitset one replaced, its
row bitsets are ORed together one cell at a time, and point files are
rendered one formatted line per point and read one line at a time.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt

import numpy as np

from nkline.grid import PointSet
from nkline.pointfile import ParsedPointSet, ParseError, parse


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


def heaviest_line_by_scan(matrix, vx, vy):
    """(load, c) of the heaviest line of direction (vx, vy) through at
    least two grid points, the smallest such c on ties, or (0, None) if
    no line of that direction holds two grid points; found by scanning
    all n^2 grid points for their intercepts."""
    n = matrix.n
    q = matrix.block_side
    weight, hits = Counter(), Counter()
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            c = vy * x - vx * y
            weight[c] += matrix.entries[(x - 1) // q][(y - 1) // q]
            hits[c] += 1
    lines = [(weight[c], -c) for c in hits if hits[c] >= 2]
    if not lines:
        return Fraction(0), None
    w, neg_c = max(lines)
    return Fraction(w, q), -neg_c


def scan_max_expected_load(matrix):
    """(load, (vx, vy, c) or None) of the heaviest generic secant of
    [1,n]^2, the first in (modulus, vx, vy, c) order on ties: each
    direction's intercepts are scanned over all n^2 grid points, as
    `heaviest_line_by_scan` does, walking the directions by modulus M
    until a line of M or more, at most (n-1)//M + 1 grid points of the
    largest entry, cannot beat the heaviest found.  O(n^2) per direction
    where `brute_max_expected_load` is O(n^4) in all."""
    n, q = matrix.n, matrix.block_side
    entries = np.asarray(matrix.entries, dtype=np.int64)
    x, y = np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1), indexing="ij")
    x, y = x.ravel(), y.ravel()
    point_weight = entries[(x - 1) // q, (y - 1) // q]
    top = int(entries.max())
    best, witness = 0, None
    for M in range(1, n):
        if top * ((n - 1) // M + 1) <= best:
            break
        dirs = sorted(
            (vx, vy)
            for vx in range(1, M + 1)
            for vy in range(-M, M + 1)
            if vy != 0 and max(vx, abs(vy)) == M and gcd(vx, abs(vy)) == 1
        )
        for vx, vy in dirs:
            c = vy * x - vx * y
            c0 = int(c.min())
            weight = np.bincount(c - c0, weights=point_weight).astype(np.int64)
            weight[np.bincount(c - c0) < 2] = 0
            at = int(np.argmax(weight))
            if weight[at] > best:
                best, witness = int(weight[at]), (vx, vy, c0 + at)
    return Fraction(best, q), witness


def grid_line_sizes(n):
    """Sizes of all generic secants of the full grid [1,n]^2, via pair
    enumeration over grid points."""
    pts = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    return generic_line_sizes(pts)


def census_by_pairs(n, j):
    """Number of generic secants of [1,n]^2 holding >= j grid points."""
    sizes = grid_line_sizes(n)
    return sum(1 for c in sizes.values() if c >= j)


def census_by_coprime_pairs(n, j):
    """Number of generic secants of [1,n]^2 holding >= j grid points,
    by a double loop over the coprime directions (a, b), a, b >= 1: a
    run of t collinear points starts at N_t = max(0, n-(t-1)a) *
    max(0, n-(t-1)b) grid points, N_j - N_{j+1} lines hold >= j, and
    the directions (a, -b) count the same."""
    cutoff = (n - 1) // (j - 1)
    total = 0
    for a in range(1, cutoff + 1):
        for b in range(1, cutoff + 1):
            if gcd(a, b) != 1:
                continue
            nj = max(0, n - (j - 1) * a) * max(0, n - (j - 1) * b)
            nj1 = max(0, n - j * a) * max(0, n - j * b)
            total += 2 * (nj - nj1)
    return total


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


def hopcroft_karp_lists(m: int, adj: list[list[int]]) -> tuple[list[int], list[int]]:
    """Maximum matching on rows/cols 0..m-1 with deterministic order
    (roots and neighbors in index order).  Returns (match_row,
    match_col), -1 for unmatched."""
    INF = m + 1
    match_row = [-1] * m
    match_col = [-1] * m
    dist = [0] * m

    while True:
        queue = []
        for a in range(m):
            if match_row[a] == -1:
                dist[a] = 0
                queue.append(a)
            else:
                dist[a] = INF
        found_free = INF
        head = 0
        while head < len(queue):
            a = queue[head]
            head += 1
            if dist[a] >= found_free:
                continue
            for b in adj[a]:
                a2 = match_col[b]
                if a2 == -1:
                    if found_free == INF:
                        found_free = dist[a] + 1
                elif dist[a2] == INF:
                    dist[a2] = dist[a] + 1
                    queue.append(a2)
        if found_free == INF:
            return match_row, match_col

        for root in range(m):
            if match_row[root] != -1:
                continue
            # iterative shortest-path DFS; augment on reaching a free column
            stack = [(root, iter(adj[root]))]
            chosen: list[tuple[int, int]] = []
            while stack:
                a, it = stack[-1]
                advanced = False
                for b in it:
                    a2 = match_col[b]
                    if a2 == -1:
                        if dist[a] + 1 == found_free:
                            match_row[a] = b
                            match_col[b] = a
                            for pa, pb in chosen:
                                match_row[pa] = pb
                                match_col[pb] = pa
                            stack = []
                            chosen = []
                            advanced = True
                            break
                    elif dist[a2] == dist[a] + 1:
                        chosen.append((a, b))
                        stack.append((a2, iter(adj[a2])))
                        advanced = True
                        break
                if not advanced:
                    dist[a] = INF
                    stack.pop()
                    if chosen:
                        chosen.pop()


class ReadCounter(list):
    """A list that counts, per index, how often an item is read."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = Counter()

    def __getitem__(self, i):
        self.reads[i] += 1
        return super().__getitem__(i)


def matchings_by_lists(m, cells):
    """Successive perfect-matching extraction from sorted adjacency
    lists with `hopcroft_karp_lists`, the list-based matcher that the
    bitset one in `bifactor` replaced.  `cells` are (row, column) pairs
    on [1,m]^2.  Returns (matchings, reads): the matchings as tuples of
    1-based columns, and for each extraction a Counter of how often it
    read each row's adjacency list (once per BFS expansion, once per
    DFS entry)."""
    adj = [[] for _ in range(m)]
    for a, b in sorted(cells):
        adj[a - 1].append(b - 1)
    matchings, reads = [], []
    while any(adj):
        rows = ReadCounter(adj)
        match_row, _ = hopcroft_karp_lists(m, rows)
        assert -1 not in match_row, "regular factor without a perfect matching"
        matchings.append(tuple(b + 1 for b in match_row))
        reads.append(rows.reads)
        for a, b in enumerate(match_row):
            adj[a].remove(b)
    return matchings, reads


def matching_cells(m, matchings):
    """Union of the cells (a, matching[a-1]) of the given matchings, as
    a PointSet on [1,m]^2."""
    cols = np.asarray(matchings, dtype=np.int64).reshape(-1, m)
    return PointSet.from_xy(m, np.tile(np.arange(1, m + 1), len(cols)), cols.ravel())


def row_bitsets_by_or_at(points):
    """rowbits[a-1] with bit b-1 set for each cell (a, b), ORed into an
    m * ceil(m/8)-byte buffer one cell at a time by `np.bitwise_or.at`:
    the builder `bifactor._row_bitsets` replaced."""
    m = points.n
    width = (m + 7) // 8
    rows, cols = np.divmod(points.keys, m)
    buf = np.zeros(m * width, dtype=np.uint8)
    np.bitwise_or.at(buf, rows * width + (cols >> 3), np.left_shift(1, cols & 7).astype(np.uint8))
    data = buf.tobytes()
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, m * width, width)]


def serialize_by_points(points, k, reserve=None, seed=None):
    """The nkline v1 text of a PointSet, one formatted line per point,
    each key decoded by Python's divmod."""
    reserve_s = "unknown" if reserve is None else reserve
    seed_s = "none" if seed is None else seed
    lines = ["nkline v1", f"n={points.n} k={k} reserve={reserve_s} seed={seed_s}"]
    for key in points.keys.tolist():
        x, y = divmod(key, points.n)
        lines.append(f"{x + 1} {y + 1}")
    return "\n".join(lines) + "\n"


_POINT_LINE = re.compile(r"[1-9][0-9]* [1-9][0-9]*")


def parse_by_lines(text):
    """The nkline v1 body read one line at a time: a regular expression,
    two `int` calls and a range check per line, then the first line whose
    point repeats an earlier one.  The header is read by `parse` itself."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    head = parse("\n".join(lines[:2]))
    n = head.points.n
    points = []
    for line_no, line in enumerate(lines[2:], start=3):
        if not _POINT_LINE.fullmatch(line):
            raise ParseError(f"expected 'x y' as canonical decimals, got {line!r}", line_no)
        x, y = map(int, line.split(" "))
        if x > n or y > n:
            raise ParseError(f"point ({x}, {y}) outside [1,{n}]^2", line_no)
        points.append((x, y))
    seen = set()
    for line_no, point in enumerate(points, start=3):
        if point in seen:
            raise ParseError(f"duplicate point {point}", line_no)
        seen.add(point)
    return ParsedPointSet(PointSet.from_points(n, points), head.k, head.reserve, head.seed)
