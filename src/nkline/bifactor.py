"""Regular bipartite structure: random r-factors and their
1-factorization.

A factor on m rows and m columns is a `PointSet` on [1,m]^2 whose point
(a, b) is the cell of row a and column b: one sorted array of keys
(a-1)*m + (b-1).  It is r-regular when every row index and every column
index occurs in exactly r cells.  Both samplers return many equal-sided
blocks as one (blocks, m, m) numpy bool array, each block drawn from its
own generator; `PointSet.from_mask` reads one block as a factor.

- `relabeled_circulants` permutes the rows and the columns of the
  circulant factor uniformly at random: no chain, two permutations per
  block, and returns those permutations with the blocks.  It is not
  the uniform law on r-factors, but it has the same one-cell marginal
  r/m and the same two-cell law within a row, and the reserve law of a
  bi-uniform retry built from it matches Curveball's (CHANGES.md holds
  the measured table).  The randomized construction samples its
  retries with it, and reads their shift classes off the returned
  permutations to spend them as 1-factors; the exact verification
  report of each output, not the sampler, is the certificate.
- `sample_blocks` steps the Curveball chains of many blocks together
  and targets the uniform law; `sample_r_factor` is its one-block call,
  and its output passes an r-regularity audit before it is returned.
  It serves the uses that need the uniform law: the marginal and
  containment checks and the demo.

Any factor splits into r disjoint perfect matchings (König), each
found by Hopcroft–Karp (`iter_matchings`, which reads r off the
factor's size and audits its degrees before the first matching).  The
matcher holds row a's remaining cells as one Python int with bit b-1
set for column b, m^2/8 bytes for all rows, so each BFS and DFS step is
a big-int operation on whole rows.
"""

from __future__ import annotations

import hashlib
import struct
from math import ceil, log
from typing import Iterator

import numpy as np

from .grid import PointSet, _check_int, _exact_int64, _narrowest_int


def derive_seed(master: int, *indices: int) -> int:
    """Stable 64-bit stream seed for (master, *indices); reruns with the
    same arguments reproduce the same factor on any platform.  Every
    argument must be an integer in the signed 64-bit range
    [-2^63, 2^63)."""
    h = hashlib.blake2b(digest_size=8)
    h.update(b"nkline-seed")
    for v in (master, *indices):
        # a plain int passes; the full check would double this call's cost
        if type(v) is not int:
            _check_int(seed=v)
        if not -(2**63) <= v < 2**63:
            raise ValueError(f"seed {v} outside the signed 64-bit range [-2^63, 2^63)")
        h.update(struct.pack(">q", v))
    return int.from_bytes(h.digest(), "big")


def _audit_degrees(points: PointSet, r: int) -> PointSet:
    """The points, after checking that they form an r-factor on
    [1,m]^2, m = points.n: exactly r cells in every row and column."""
    if not points.is_regular(r):
        raise ValueError(f"degree audit failed: not {r}-regular on [1,{points.n}]^2")
    return points


def _degrees(q: int, r) -> np.ndarray:
    """r as an int64 array, checked to be whole numbers in [0, q]."""
    r = _exact_int64(r, "regularity")
    bad = r[(r < 0) | (r > q)]
    if bad.size:
        raise ValueError(f"regularity {bad[0]} outside [0, {q}]")
    return r


def _circulant(q: int, r) -> np.ndarray:
    """The circulant r-factor of the q x q cell grid as a bool mask:
    [a-1, c-1] is set iff (c - a) mod q < r.  An array of degrees r
    gives one mask per entry, shape r.shape + (q, q)."""
    r = _degrees(q, r)
    idx = np.arange(q)
    return (idx[None, :] - idx[:, None]) % q < r[..., None, None]


def relabeled_circulants(q: int, rs, seeds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One rs[b]-factor of the q x q cell grid per block b: the circulant
    factor under a uniformly random row and column relabeling.

    Block b seeds `default_rng(seeds[b])` and draws a row permutation
    sigma[b], then a column permutation tau[b]; [b, a, c] is set iff
    (tau[b, c] - sigma[b, a]) mod q < rs[b], which is
    `_circulant(q, rs[b])[sigma[b]][:, tau[b]]`.  Returns (blocks,
    sigma, tau): blocks is a (B, q, q) bool array like `sample_blocks`,
    built in one broadcast with no chain rounds, and sigma, tau are the
    (B, q) relabelings, in the narrowest integer type that holds [-q, q]
    (`grid._narrowest_int`), so that tau - sigma fits the same type.  A
    block depends only on its own seed.  Shift class s < rs[b] of block
    b, the cells with tau[b, c] = (sigma[b, a] + s) mod q, is a perfect
    matching of the block.

    Every cell lies in the factor with probability r/q, and two cells of
    one row (or column) with probability r(r-1)/(q(q-1)), as under the
    uniform law; the law itself is not uniform over r-factors.
    """
    rs = _degrees(q, rs).reshape(-1)
    if len(seeds) != rs.size:
        raise ValueError(f"{len(seeds)} seeds for {rs.size} blocks")
    dtype = _narrowest_int(q)
    sigma = np.empty((rs.size, q), dtype=dtype)
    tau = np.empty_like(sigma)
    for b, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        sigma[b] = rng.permutation(q)
        tau[b] = rng.permutation(q)
    # d = tau[c] - sigma[a] lies in (-q, q), so d mod q < r exactly when
    # 0 <= d < r or d < r - q; this skips an integer modulo per cell
    d = tau[:, None, :] - sigma[:, :, None]
    r = rs.astype(dtype).reshape(-1, 1, 1)
    return (d >= 0) & (d < r) | (d < r - q), sigma, tau


def _split(keys: np.ndarray, keep_a: np.ndarray) -> np.ndarray:
    """Mark in each row of `keys` (shape (P, q)) its keep_a smallest
    entries, keep_a of shape (P,) with entries below q: those below the
    (keep_a+1)-th smallest.  A row whose threshold key is tied with the
    one before it (odds about q^2 / 2^54 for random doubles) is redone
    by stable rank, so exactly keep_a entries are always marked."""
    ranked = np.sort(keys, axis=1).reshape(-1)
    at = np.arange(len(keys)) * keys.shape[1] + keep_a
    after = ranked[at]
    to_a = keys < after[:, None]
    for p in np.flatnonzero((keep_a > 0) & (ranked[at - 1] == after)):
        to_a[p] = False
        to_a[p, np.argsort(keys[p], kind="stable")[: keep_a[p]]] = True
    return to_a


def sample_blocks(q: int, rs, seeds) -> np.ndarray:
    """Sample one rs[b]-factor of the q x q cell grid per block b, with
    the Curveball chains of all blocks stepped in lockstep.

    Returns a (B, q, q) bool array: [b, a-1, c-1] is cell (a, c) of
    block b.  Block b draws only from its own `default_rng(seeds[b])`,
    the same draws in the same order as a lone call, so it does not
    depend on which blocks it is sampled with.  Each block starts from
    the circulant factor and runs the chain described in
    `sample_r_factor` for ceil(10 ln(q+1)) rounds; an empty or full
    block is the unique factor and draws nothing.
    """
    rs = _degrees(q, rs).reshape(-1)
    if len(seeds) != rs.size:
        raise ValueError(f"{len(seeds)} seeds for {rs.size} blocks")
    present = _circulant(q, rs)
    live = np.flatnonzero((rs > 0) & (rs < q))
    if live.size == 0:
        return present
    chain = present[live]
    rows = chain.reshape(-1, q)  # row a of live block g is rows[g*q + a]
    rngs = [np.random.default_rng(seeds[b]) for b in live]
    pairs = q // 2
    perm = np.empty((live.size, q), dtype=np.int64)
    keys = np.empty((live.size, pairs, q))
    flat_keys = keys.reshape(-1, q)  # the pairs of all live blocks, one per row
    row_base = (np.arange(live.size) * q)[:, None]
    for _ in range(ceil(10 * log(q + 1))):
        for g, rng in enumerate(rngs):
            perm[g] = rng.permutation(q)
            rng.random(out=keys[g])
        perm += row_base
        top = perm[:, 0 : 2 * pairs : 2].reshape(-1)
        bottom = perm[:, 1 : 2 * pairs : 2].reshape(-1)
        a, b = rows[top], rows[bottom]
        diff = a ^ b
        # both rows lie in one block (perm + row_base keeps blocks apart)
        # and hold its r cells, so A keeps half of the difference
        keep_a = diff.view(np.uint8).sum(axis=1, dtype=np.min_scalar_type(q)) >> 1
        # difference keys move to [-1, 0), below all others, so the keep_a
        # smallest lie in it; keys are multiples of 2^-53, so no tie moves
        flat_keys -= diff
        to_a = _split(flat_keys, keep_a)
        # to_a lies in the difference, so flipping it and the shared cells
        # out of the difference leaves B's share and the shared cells
        a &= b
        to_a |= a
        rows[top] = to_a
        diff ^= to_a
        rows[bottom] = diff
    present[live] = chain
    return present


def sample_r_factor(m: int, r: int, seed: int) -> PointSet:
    """Sample an r-factor of the complete bipartite m x m cell grid:
    the one-block call of `sample_blocks`, as a `PointSet` on [1,m]^2
    whose degrees are audited before it is returned.

    Starts from the circulant factor, held as an m x m bool matrix, and
    runs the global Curveball chain (Strona et al. 2014; uniform
    stationary law for fixed row and column sums, Carstens 2015).  Each
    round draws a random permutation of the rows and pairs them up (an
    odd row sits the round out), then one uniform key per column of
    every pair.  A pair (A, B) trades: the columns in exactly one of the
    two rows, A △ B, are split back by their keys, the |A - B| smallest
    (half of A △ B, as both rows hold r cells) to A and the rest to B,
    a uniformly random split.  Row sums are kept by the split and column
    sums never change, so every state is r-regular.  All trades of a
    round are a few whole-array numpy operations.

    Chain length: ceil(10 ln(m+1)) rounds, 47 at m = 100.  It was chosen on measured data: exact enumeration
    of the (4, 2) and (5, 1) state spaces passes a chi-square test
    against uniform (`test_sampler_matches_uniform_on_enumerated_factors`);
    acceptance criterion 6 (cell marginal and 2-matching containment)
    passes at its tolerance; and the mean worst generic load over 40
    retries of the bi-uniform construction at n=400, k=120, seed 3 is
    121.25 +- 2.68 (mean +- standard deviation), against 121.20 +- 2.95
    for the 2x2 switch chain this sampler replaced.  Fully deterministic
    given (m, r, seed); downstream users certify every output anyway.
    """
    return _audit_degrees(PointSet.from_mask(sample_blocks(m, [r], [seed])[0]), r)


# cells sampled in one lockstep call of `matching_containment_probability`
_GROUP_CELLS = 1 << 20


def matching_containment_probability(m: int, r: int, s: int, trials: int, seed: int) -> float:
    """Empirical probability that a sampled r-factor contains the fixed
    matching {(1,1), ..., (s,s)}; meant for comparison against
    K * (r/m)^s.  Trial t samples with seed derive_seed(seed, t); the
    trials run in lockstep groups of at most 2^20 cells, so memory does
    not grow with `trials`."""
    if not 1 <= s <= m:
        raise ValueError(f"matching size {s} outside [1, {m}]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    group = max(1, _GROUP_CELLS // (m * m))
    diagonal = np.arange(s)
    hits = 0
    for start in range(0, trials, group):
        seeds = [derive_seed(seed, t) for t in range(start, min(start + group, trials))]
        blocks = sample_blocks(m, [r] * len(seeds), seeds)
        hits += int(np.count_nonzero(blocks[:, diagonal, diagonal].all(axis=1)))
    return hits / trials


def _hopcroft_karp(m: int, rowbits: list[int]) -> tuple[list[int], list[int]]:
    """Maximum matching on rows/cols 0..m-1, where bit b of rowbits[a]
    is set when row a may take column b.  Deterministic order: roots in
    index order, and each row tries its columns from the lowest bit up.
    Returns (match_row, match_col), -1 for unmatched.

    Each phase is O(m) big-int operations.  The BFS ORs the row masks
    of a layer together; bydist[d] holds the columns whose matched row
    lies at distance d, and found_free is the length of the shortest
    augmenting paths.  In the DFS a row at distance d takes the lowest
    of its untried columns that lies in bydist[d+1] (or is free, when
    d+1 == found_free): exactly the next column a sorted adjacency list
    would accept.  A dead-end row leaves its layer, so it is never
    entered again in the phase.
    """
    match_row = [-1] * m
    match_col = [-1] * m
    freecols = (1 << m) - 1

    while True:
        layer = [a for a in range(m) if match_row[a] == -1]
        bydist = [0]
        seen = freecols  # free columns and the columns of layered rows
        while True:
            reach = 0
            for a in layer:
                reach |= rowbits[a]
            new = reach & ~seen
            # the layer that reaches a free column is still assigned
            bydist.append(new)
            if reach & freecols:
                break
            if not new:
                return match_row, match_col
            seen |= new
            layer = []
            while new:
                low = new & -new
                layer.append(match_col[low.bit_length() - 1])
                new ^= low
        found_free = len(bydist) - 1

        for root in range(m):
            if match_row[root] != -1:
                continue
            # iterative shortest-path DFS; stack[d] = [row at distance d,
            # the columns it has not tried yet, the column it took last];
            # augment on a free column
            stack = [[root, rowbits[root], -1]]
            while stack:
                nxt = len(stack)
                frame = stack[-1]
                mask = bydist[nxt] if nxt <= found_free else 0
                if nxt == found_free:
                    mask |= freecols
                cand = frame[1] & mask
                if not cand:
                    stack.pop()
                    if nxt > 1:
                        bydist[nxt - 1] &= ~(1 << match_row[frame[0]])
                    continue
                low = cand & -cand
                b = low.bit_length() - 1
                frame[1] &= -(low << 1)
                frame[2] = b
                if low & freecols:
                    # path column d moves from its old row's layer d+1
                    # to its new row's layer d
                    freecols ^= low
                    for d, (a, _, b) in enumerate(stack):
                        bit = 1 << b
                        bydist[d + 1] &= ~bit
                        bydist[d] |= bit
                        match_row[a] = b
                        match_col[b] = a
                    break
                a2 = match_col[b]
                stack.append([a2, rowbits[a2], -1])


def _row_bitsets(points: PointSet) -> list[int]:
    """rowbits[a-1] has bit b-1 set for each cell (a, b) of the points.

    The cells are marked in the points' dense m x m bool mask (m^2
    transient bytes, 160 KB at m = 400) and each row is packed to
    ceil(m/8) bytes, lowest column in the lowest bit.
    """
    m = points.n
    data = np.packbits(points.mask(), axis=1, bitorder="little").tobytes()
    width = (m + 7) // 8
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, m * width, width)]


def iter_matchings(points: PointSet) -> Iterator[tuple[int, ...]]:
    """Yield the r disjoint perfect matchings of an r-factor on [1,m]^2,
    m = points.n and r = len(points) // m, one at a time, by successive
    extraction; deterministic for a given input.  The degrees are
    audited before the first matching: a set that is not r-regular
    raises ValueError.  Row a's remaining cells are one Python int with
    bit b-1 set for column b, so the rows take m^2/8 bytes in all (20 KB
    at m = 400), and each extracted matching is cleared from them bit by
    bit; building them takes m^2 transient bytes (`_row_bitsets`), freed
    before the first matching.  Each matching is extracted only when it
    is asked for, so a caller that needs the first t pays for t
    extractions; the first t matchings never depend on how many follow.
    """
    m = points.n
    r = len(points) // m
    rowbits = _row_bitsets(_audit_degrees(points, r))
    for _ in range(r):
        match_row, _ = _hopcroft_karp(m, rowbits)
        if -1 in match_row:
            raise RuntimeError("regular factor lost a perfect matching; degree audit bug")
        yield tuple(b + 1 for b in match_row)
        for a, b in enumerate(match_row):
            rowbits[a] &= ~(1 << b)
    if any(rowbits):
        raise RuntimeError("edges left over after extracting all factors")

