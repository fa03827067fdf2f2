"""Regular bipartite structure: switch-chain sampling of r-factors,
perfect matchings with Hall witnesses, and 1-factorization.

Cells are (row, column) pairs in [1,m]^2; a factor is r-regular when
every row index and every column index occurs in exactly r cells.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from math import ceil, log
from typing import Iterable, Iterator, Optional

import numpy as np


def derive_seed(master: int, *indices: int) -> int:
    """Stable 64-bit stream seed for (master, *indices); reruns with the
    same arguments reproduce the same factor on any platform."""
    h = hashlib.blake2b(digest_size=8)
    h.update(b"nkline-seed")
    for v in (master, *indices):
        h.update(struct.pack(">q", v))
    return int.from_bytes(h.digest(), "big")


@dataclass(frozen=True)
class BipartiteFactor:
    """An r-regular set of cells on an m x m row/column index grid."""

    m: int
    r: int
    cells: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        m, r = self.m, self.r
        if not 0 <= r <= m:
            raise ValueError(f"regularity {r} outside [0, {m}]")
        if len(self.cells) != r * m:
            raise ValueError(f"expected {r * m} cells, got {len(self.cells)}")
        row_deg = [0] * (m + 1)
        col_deg = [0] * (m + 1)
        for a, b in self.cells:
            if not (1 <= a <= m and 1 <= b <= m):
                raise ValueError(f"cell ({a}, {b}) outside [1,{m}]^2")
            row_deg[a] += 1
            col_deg[b] += 1
        for v in range(1, m + 1):
            if row_deg[v] != r or col_deg[v] != r:
                raise ValueError(
                    f"degree audit failed at index {v}: row {row_deg[v]}, col {col_deg[v]}, want {r}"
                )


def circulant_cells(m: int, r: int) -> set[tuple[int, int]]:
    """Cell (a, b) present iff (b - a) mod m < r; the canonical r-factor."""
    return {
        (a, b)
        for a in range(1, m + 1)
        for b in range(1, m + 1)
        if (b - a) % m < r
    }


def circulant_factor(rows: list[int], cols: list[int], r: int) -> set[tuple[int, int]]:
    """r-regular cell set on arbitrary index lists: for each offset
    d < r, the shifted diagonal (cols[a], rows[(a + d) mod q]).

    Cell order is (x, y) = (cols[a], rows[b]); every given row and
    column index ends up in exactly r cells.
    """
    q = len(rows)
    if len(cols) != q:
        raise ValueError("rows and cols must have equal length")
    if not 0 <= r <= q:
        raise ValueError(f"regularity {r} outside [0, {q}]")
    return {
        (cols[a], rows[b])
        for a in range(q)
        for b in range(q)
        if (b - a) % q < r
    }


def default_chain_steps(m: int, r: int) -> int:
    """Chain length used when none is given: ceil(10 * m * r * ln(m+1))."""
    return ceil(10 * m * r * log(m + 1))


def sample_r_factor(
    m: int,
    r: int,
    seed: int,
    steps: Optional[int] = None,
) -> BipartiteFactor:
    """Sample an r-factor of the complete bipartite m x m cell grid.

    Starts from the circulant factor and runs the 2x2 switch chain:
    pick two present cells (a,b), (a',b'); if they share no index and
    both (a,b') and (a',b) are absent, swap the checkerboard.  `steps`
    counts proposals, accepted or rejected.  Fully deterministic given
    (m, r, seed, steps); approximate uniformity is validated
    statistically, and downstream users certify every output anyway.
    """
    if not 0 <= r <= m:
        raise ValueError(f"regularity {r} outside [0, {m}]")
    if steps is not None and steps < 1:
        raise ValueError("steps must be positive when given")
    if r in (0, m) or m == 1:
        # unique factor; no valid switch exists
        return BipartiteFactor(m, r, frozenset(circulant_cells(m, r)))
    if steps is None:
        steps = default_chain_steps(m, r)

    # parallel arrays: cell i is (row_off[i] // m + 1, col[i] + 1), 0-based grid
    ncells = m * r
    row_off = [0] * ncells
    col = [0] * ncells
    present = bytearray(m * m)
    i = 0
    for a in range(m):
        base = a * m
        for b in range(m):
            if (b - a) % m < r:
                row_off[i] = base
                col[i] = b
                present[base + b] = 1
                i += 1

    rng = np.random.default_rng(seed)
    chunk = 1 << 14
    remaining = steps
    while remaining > 0:
        take = min(remaining, chunk)
        remaining -= take
        draws = rng.integers(0, ncells, size=2 * take).tolist()
        for i, j in zip(draws[0::2], draws[1::2]):
            oa = row_off[i]
            ob = row_off[j]
            if oa == ob:
                continue
            ca = col[i]
            cb = col[j]
            if ca == cb or present[oa + cb] or present[ob + ca]:
                continue
            present[oa + ca] = 0
            present[ob + cb] = 0
            present[oa + cb] = 1
            present[ob + ca] = 1
            col[i] = cb
            col[j] = ca

    cells = frozenset(
        (row_off[i] // m + 1, col[i] + 1) for i in range(ncells)
    )
    return BipartiteFactor(m, r, cells)


def matching_containment_probability(
    m: int,
    r: int,
    s: int,
    trials: int,
    seed: int,
    steps: Optional[int] = None,
) -> float:
    """Empirical probability that a sampled r-factor contains the fixed
    matching {(1,1), ..., (s,s)}; meant for comparison against
    K * (r/m)^s."""
    if not 1 <= s <= m:
        raise ValueError(f"matching size {s} outside [1, {m}]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    target = [(t, t) for t in range(1, s + 1)]
    hits = 0
    for t in range(trials):
        factor = sample_r_factor(m, r, derive_seed(seed, t), steps)
        if all(cell in factor.cells for cell in target):
            hits += 1
    return hits / trials


@dataclass(frozen=True)
class MatchingResult:
    """Either a perfect matching (match[a-1] = column of row a) or a
    Hall-violating row set whose joint neighborhood is smaller."""

    matching: Optional[tuple[int, ...]]
    violator_rows: Optional[frozenset[int]] = None
    neighborhood: Optional[frozenset[int]] = None

    @property
    def found(self) -> bool:
        return self.matching is not None


def _hopcroft_karp(m: int, adj: list[list[int]]) -> tuple[list[int], list[int]]:
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


def perfect_matching(m: int, cells: Iterable[tuple[int, int]]) -> MatchingResult:
    """Perfect matching of a bipartite graph on m + m vertices given as
    (row, column) cells, or a Hall-violating witness.  Absence is a
    result, not an error."""
    adj: list[list[int]] = [[] for _ in range(m)]
    seen = set()
    for a, b in cells:
        if not (1 <= a <= m and 1 <= b <= m):
            raise ValueError(f"cell ({a}, {b}) outside [1,{m}]^2")
        if (a, b) not in seen:
            seen.add((a, b))
            adj[a - 1].append(b - 1)
    for row in adj:
        row.sort()
    match_row, match_col = _hopcroft_karp(m, adj)
    if all(b != -1 for b in match_row):
        return MatchingResult(matching=tuple(b + 1 for b in match_row))
    # alternating-reachability witness from one unmatched row
    start = next(a for a in range(m) if match_row[a] == -1)
    rows = {start}
    cols: set[int] = set()
    frontier = [start]
    while frontier:
        nxt = []
        for a in frontier:
            for b in adj[a]:
                if b in cols:
                    continue
                cols.add(b)
                a2 = match_col[b]
                if a2 != -1 and a2 not in rows:
                    rows.add(a2)
                    nxt.append(a2)
        frontier = nxt
    return MatchingResult(
        matching=None,
        violator_rows=frozenset(a + 1 for a in rows),
        neighborhood=frozenset(b + 1 for b in cols),
    )


@dataclass(frozen=True)
class OneFactorization:
    """Ordered decomposition of a k-regular factor into k disjoint
    perfect matchings; factors[t][a-1] is the column matched to row a."""

    m: int
    factors: tuple[tuple[int, ...], ...]

    def cells_of(self, t: int) -> set[tuple[int, int]]:
        return {(a + 1, b) for a, b in enumerate(self.factors[t])}

    def all_cells(self) -> set[tuple[int, int]]:
        out: set[tuple[int, int]] = set()
        for t in range(len(self.factors)):
            out |= self.cells_of(t)
        return out


def iter_matchings(factor: BipartiteFactor) -> Iterator[tuple[int, ...]]:
    """Yield the r disjoint perfect matchings of an r-regular factor one
    at a time, by successive extraction from sorted adjacency lists;
    deterministic for a given input.  Each matching is extracted only
    when it is asked for, so a caller that needs the first t pays for t
    extractions; the first t matchings never depend on how many follow.
    """
    m, r = factor.m, factor.r
    adj: list[list[int]] = [[] for _ in range(m)]
    for a, b in factor.cells:
        adj[a - 1].append(b - 1)
    for row in adj:
        row.sort()
    for _ in range(r):
        match_row, _ = _hopcroft_karp(m, adj)
        if any(b == -1 for b in match_row):
            raise RuntimeError("regular factor lost a perfect matching; degree audit bug")
        yield tuple(b + 1 for b in match_row)
        for a, b in enumerate(match_row):
            adj[a].remove(b)
    if any(adj[a] for a in range(m)):
        raise RuntimeError("edges left over after extracting all factors")


def one_factorize(factor: BipartiteFactor) -> OneFactorization:
    """Split an r-regular factor into r disjoint perfect matchings by
    successive extraction; deterministic for a given input."""
    return OneFactorization(factor.m, tuple(iter_matchings(factor)))
