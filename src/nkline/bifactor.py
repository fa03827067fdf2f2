"""Regular bipartite structure: Curveball sampling of r-factors and
their 1-factorization.

A factor on m rows and m columns is a `PointSet` on [1,m]^2 whose point
(a, b) is the cell of row a and column b: one sorted array of keys
(a-1)*m + (b-1).  It is r-regular when every row index and every column
index occurs in exactly r cells.  The sampler runs on an m x m numpy
bool matrix, trades rows in pairs and returns the matrix's flat nonzero
indices, which are those keys; its output, like every factor, passes
the `BipartiteFactor` degree audit when it is built.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from math import ceil, log
from typing import Iterator, Optional

import numpy as np

from .grid import PointSet


def derive_seed(master: int, *indices: int) -> int:
    """Stable 64-bit stream seed for (master, *indices); reruns with the
    same arguments reproduce the same factor on any platform.  Every
    argument must lie in the signed 64-bit range [-2^63, 2^63)."""
    h = hashlib.blake2b(digest_size=8)
    h.update(b"nkline-seed")
    for v in (master, *indices):
        if not -(2**63) <= v < 2**63:
            raise ValueError(f"seed {v} outside the signed 64-bit range [-2^63, 2^63)")
        h.update(struct.pack(">q", v))
    return int.from_bytes(h.digest(), "big")


@dataclass(frozen=True)
class BipartiteFactor:
    """An r-regular cell set on the m x m row/column index grid."""

    r: int
    points: PointSet

    def __post_init__(self) -> None:
        if not self.points.is_regular(self.r):
            raise ValueError(f"degree audit failed: not {self.r}-regular on [1,{self.m}]^2")

    @property
    def m(self) -> int:
        return self.points.n


def circulant_factor(rows: list[int], cols: list[int], r: int) -> tuple[np.ndarray, np.ndarray]:
    """r-regular cell set on arbitrary index lists: for each offset
    d < r, the shifted diagonal (cols[a], rows[(a + d) mod q]).

    Returns the cells as coordinate arrays (xs, ys) = (cols[a],
    rows[b]); every given row and column index ends up in exactly r
    cells.
    """
    q = len(rows)
    if len(cols) != q:
        raise ValueError("rows and cols must have equal length")
    if not 0 <= r <= q:
        raise ValueError(f"regularity {r} outside [0, {q}]")
    a = np.repeat(np.arange(q), r)
    b = (a + np.tile(np.arange(r), q)) % q
    return np.asarray(cols, dtype=np.int64)[a], np.asarray(rows, dtype=np.int64)[b]


def default_chain_rounds(m: int) -> int:
    """Curveball rounds used when none are given: ceil(10 * ln(m+1))."""
    return ceil(10 * log(m + 1))


def sample_r_factor(
    m: int,
    r: int,
    seed: int,
    rounds: Optional[int] = None,
) -> BipartiteFactor:
    """Sample an r-factor of the complete bipartite m x m cell grid.

    Starts from the circulant factor, held as an m x m bool matrix, and
    runs the global Curveball chain (Strona et al. 2014; uniform
    stationary law for fixed row and column sums, Carstens 2015).  Each
    round draws a random permutation of the rows and pairs them up (an
    odd row sits the round out).  A pair (A, B) trades: the columns in
    exactly one of the two rows are shuffled and split back so that A
    again gets |A - B| of them and B the rest.  Row sums are kept by the
    split and column sums never change, so every state is r-regular.
    All trades of a round are a few whole-array numpy operations.

    Chain length: `default_chain_rounds(m)` = ceil(10 ln(m+1)) rounds,
    47 at m = 100.  It was chosen on measured data: exact enumeration
    of the (4, 2) and (5, 1) state spaces passes a chi-square test
    against uniform (`test_sampler_matches_uniform_on_enumerated_factors`);
    acceptance criterion 6 (cell marginal and 2-matching containment)
    passes at its tolerance; and the mean worst generic load over 40
    retries of the bi-uniform construction at n=400, k=120, seed 3 is
    121.25 +- 2.68 (mean +- standard deviation), against 121.20 +- 2.95
    for the 2x2 switch chain this sampler replaced.  Fully deterministic
    given (m, r, seed, rounds); downstream users certify every output
    anyway.
    """
    if not 0 <= r <= m:
        raise ValueError(f"regularity {r} outside [0, {m}]")
    if rounds is not None and rounds < 1:
        raise ValueError("rounds must be positive when given")
    if rounds is None:
        rounds = default_chain_rounds(m)
    if r in (0, m):
        rounds = 0  # the factor is unique; no trade can move it

    idx = np.arange(m)
    # circulant start: cell (a, b) is present iff (b - a) mod m < r
    present = (idx[None, :] - idx[:, None]) % m < r
    pairs = m // 2
    row_start = (np.arange(pairs) * m)[:, None]
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        perm = rng.permutation(m)
        top, bottom = perm[0 : 2 * pairs : 2], perm[1 : 2 * pairs : 2]
        a, b = present[top], present[bottom]
        diff = a ^ b
        keep_a = np.count_nonzero(a & ~b, axis=1)
        # each row's diff columns come first, in uniformly random order;
        # the first keep_a of them go back to row a, the rest to row b
        order = np.argsort(np.where(diff, rng.random((pairs, m)), 2.0), axis=1)
        to_a = np.empty_like(diff)
        to_a.reshape(-1)[order + row_start] = idx < keep_a[:, None]
        common = a & b
        present[top] = common | to_a
        present[bottom] = common | (diff ^ to_a)

    # row-major flat indices are the keys (a-1)*m + (b-1), ascending
    return BipartiteFactor(r, PointSet(m, np.flatnonzero(present)))


def matching_containment_probability(
    m: int,
    r: int,
    s: int,
    trials: int,
    seed: int,
    rounds: Optional[int] = None,
) -> float:
    """Empirical probability that a sampled r-factor contains the fixed
    matching {(1,1), ..., (s,s)}; meant for comparison against
    K * (r/m)^s."""
    if not 1 <= s <= m:
        raise ValueError(f"matching size {s} outside [1, {m}]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    hits = 0
    for t in range(trials):
        factor = sample_r_factor(m, r, derive_seed(seed, t), rounds)
        if all((a, a) in factor.points for a in range(1, s + 1)):
            hits += 1
    return hits / trials


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


@dataclass(frozen=True)
class OneFactorization:
    """Ordered decomposition of a k-regular factor into k disjoint
    perfect matchings; factors[t][a-1] is the column matched to row a."""

    m: int
    factors: tuple[tuple[int, ...], ...]

    def cells_of(self, t: int) -> PointSet:
        return _matching_cells(self.m, [self.factors[t]])

    def all_cells(self) -> PointSet:
        return _matching_cells(self.m, self.factors)


def _matching_cells(m: int, matchings) -> PointSet:
    """Union of the cells (a, matching[a-1]) of the given matchings."""
    cols = np.asarray(matchings, dtype=np.int64).reshape(-1, m)
    return PointSet.from_xy(m, np.tile(np.arange(1, m + 1), len(cols)), cols.ravel())


def iter_matchings(factor: BipartiteFactor) -> Iterator[tuple[int, ...]]:
    """Yield the r disjoint perfect matchings of an r-regular factor one
    at a time, by successive extraction from sorted adjacency lists;
    deterministic for a given input.  Each matching is extracted only
    when it is asked for, so a caller that needs the first t pays for t
    extractions; the first t matchings never depend on how many follow.
    """
    m, r = factor.m, factor.r
    # points come in (row, column) order, r per row: row a's sorted columns
    _, cols = factor.points.xy()
    adj = (cols - 1).reshape(m, r).tolist()
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
