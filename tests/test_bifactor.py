"""Tests for factor sampling, matchings and 1-factorization."""

import hashlib
import random
import tracemalloc
from collections import Counter
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nkline import bifactor
from nkline.bifactor import (
    derive_seed,
    iter_matchings,
    matching_containment_probability,
    relabeled_circulants,
    sample_blocks,
    sample_r_factor,
)
from nkline.bifactor import _row_bitsets, _split
from nkline.grid import FeasibilityMatrix, PointSet
from oracles import ReadCounter, all_r_factors, matching_cells, matchings_by_lists, row_bitsets_by_or_at


def _cells(points):
    """The cells of a PointSet as a set of (row, column) tuples."""
    return set(points.sorted_xy())


def _circulant(m, r):
    """The circulant r-factor on [1,m]^2: (a, b) present iff (b - a) mod m < r."""
    return PointSet(m, np.flatnonzero(bifactor._circulant(m, r)))


def _circulant_cells(rows, cols, r):
    """Cells (xs, ys) of the circulant r-factor on the given index lists,
    placed as `explicit_construct` places it: cell (a, c) of the mask
    goes to (cols[a-1], rows[c-1])."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    grid = np.zeros((cols.max() + 1, rows.max() + 1), dtype=bool)
    grid[np.ix_(cols, rows)] = bifactor._circulant(len(rows), r)
    return np.nonzero(grid)


def test_derive_seed_stable_and_sensitive():
    assert derive_seed(7, 1, 2, 3) == derive_seed(7, 1, 2, 3)
    assert derive_seed(7, 1, 2, 3) != derive_seed(7, 1, 2, 4)
    assert derive_seed(7) != derive_seed(8)


def test_derive_seed_rejects_values_outside_int64():
    assert derive_seed(2**63 - 1, -(2**63)) == derive_seed(2**63 - 1, -(2**63))
    for bad in (2**63, -(2**63) - 1, 99999999999999999999):
        with pytest.raises(ValueError, match="signed 64-bit"):
            derive_seed(bad)
        with pytest.raises(ValueError, match="signed 64-bit"):
            derive_seed(1, 0, bad)


def test_derive_seed_takes_integers_only():
    assert derive_seed(np.int64(7), np.int16(1)) == derive_seed(7, 1)
    for bad in (1.5, 7.0, "7", True, np.bool_(False), None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            derive_seed(bad)
        with pytest.raises(ValueError, match="seed must be an integer"):
            derive_seed(1, 0, bad)


def test_factor_validation_catches_bad_degrees():
    # r is read off the size: two cells in one column are not 1-regular,
    # and one cell on a 2-grid is not 0-regular; each fails before the
    # first matching
    for r, cells in ((1, {(1, 1), (2, 1)}), (0, {(1, 1)})):
        matchings = iter_matchings(PointSet.from_points(2, cells))
        with pytest.raises(ValueError, match=rf"degree audit failed: not {r}-regular on \[1,2\]\^2"):
            next(matchings)
    assert list(iter_matchings(PointSet.from_points(2, {(1, 1), (2, 2)}))) == [(1, 2)]


def test_circulant_cells_regular():
    f = _circulant(5, 2)
    assert f.is_regular(2) and len(f) == 10
    assert _cells(f) == {(a, b) for a in range(1, 6) for b in range(1, 6) if (b - a) % 5 < 2}


def test_circulant_factor_single_shift_is_diagonal():
    xs, ys = _circulant_cells([4, 7, 9], [2, 5, 8], 1)
    assert set(zip(xs.tolist(), ys.tolist())) == {(2, 4), (5, 7), (8, 9)}


def test_circulant_factor_full():
    xs, ys = _circulant_cells([1, 2, 3], [4, 5, 6], 3)
    assert len(set(zip(xs.tolist(), ys.tolist()))) == 9


def test_circulant_factor_degree_audit():
    rows = [3, 6, 9, 12, 15]
    cols = [1, 4, 7, 10, 13]
    xs, ys = _circulant_cells(rows, cols, 2)
    assert len(set(zip(xs.tolist(), ys.tolist()))) == 10
    xs = Counter(xs.tolist())
    ys = Counter(ys.tolist())
    assert all(xs[c] == 2 for c in cols)
    assert all(ys[r] == 2 for r in rows)


def test_circulant_factor_rejects_r_too_large():
    with pytest.raises(ValueError):
        _circulant_cells([1, 2], [3, 4], 3)


def test_sample_r0_and_rm():
    assert len(sample_r_factor(5, 0, 1)) == 0
    assert len(sample_r_factor(5, 5, 1)) == 25


def test_sample_rejects_bad_r():
    with pytest.raises(ValueError):
        sample_r_factor(5, 6, 1)
    with pytest.raises(ValueError):
        sample_r_factor(5, -1, 1)


def test_sample_is_deterministic():
    a = sample_r_factor(12, 5, seed=42)
    b = sample_r_factor(12, 5, seed=42)
    c = sample_r_factor(12, 5, seed=43)
    assert a == b
    assert a != c


def test_sample_stays_regular_across_seeds():
    for seed in range(10):
        f = sample_r_factor(9, 4, seed=seed)  # audits degrees
        assert len(f) == 36


# sha256 of str(sorted cells of sample_r_factor(12, 5, 42)), cells as
# (row, column) tuples; a change that moves sampler bytes moves every
# randomized construction
GOLDEN_SAMPLE_SHA256 = "944ced9c8d2293e65f034ca330b4e0392f407da96cf2384c3ca016afd47fd3b9"


def test_sample_golden_bytes():
    cells = sorted(sample_r_factor(12, 5, 42).sorted_xy())
    assert hashlib.sha256(str(cells).encode()).hexdigest() == GOLDEN_SAMPLE_SHA256


@given(m=st.integers(1, 30), data=st.data())
@settings(max_examples=80, deadline=None)
def test_sample_is_regular_and_deterministic(m, data):
    r = data.draw(st.integers(0, m))
    seed = data.draw(st.integers(0, 2**63 - 1))
    f = sample_r_factor(m, r, seed)  # audits degrees
    assert (f.n, len(f)) == (m, m * r) and f.is_regular(r)
    assert sample_r_factor(m, r, seed) == f


@given(q=st.integers(1, 30), data=st.data())
@settings(max_examples=60, deadline=None)
def test_lockstep_blocks_equal_lone_samples(q, data):
    rs = data.draw(st.lists(st.integers(0, q), min_size=1, max_size=5))
    rs = data.draw(st.permutations(rs + [0, q]))
    seeds = data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=len(rs), max_size=len(rs)))
    blocks = sample_blocks(q, rs, seeds)
    assert blocks.shape == (len(rs), q, q) and blocks.dtype == bool
    for block, r, seed in zip(blocks, rs, seeds):
        lone = sample_r_factor(q, r, seed)
        assert PointSet(q, np.flatnonzero(block)) == lone


def test_sample_blocks_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sample_blocks(5, [2, 6], [1, 2])
    with pytest.raises(ValueError):
        sample_blocks(5, [2, -1], [1, 2])
    with pytest.raises(ValueError):
        sample_blocks(5, [2, 2], [1])


def _relabeled_circulant_by_oracle(q, r, seed):
    """One block as the docstring states it: seed a generator, draw the
    row permutation, then the column permutation, and permute the
    circulant mask by them."""
    rng = np.random.default_rng(seed)
    sigma = rng.permutation(q)
    tau = rng.permutation(q)
    return bifactor._circulant(q, r)[sigma][:, tau]


@given(q=st.integers(1, 30), data=st.data())
@settings(max_examples=80, deadline=None)
def test_relabeled_circulants_match_per_block_oracle(q, data):
    # every degree in [0, q] occurs, in a drawn order, plus a few repeats
    rs = data.draw(st.lists(st.integers(0, q), max_size=4))
    rs = data.draw(st.permutations(rs + list(range(q + 1))))
    seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=len(rs), max_size=len(rs)))
    blocks, sigma, tau = relabeled_circulants(q, rs, seeds)
    assert blocks.shape == (len(rs), q, q) and blocks.dtype == bool
    assert sigma.shape == tau.shape == (len(rs), q) and sigma.dtype == tau.dtype == np.int16
    for block, r, seed, row_perm, col_perm in zip(blocks, rs, seeds, sigma, tau):
        assert np.array_equal(block, _relabeled_circulant_by_oracle(q, r, seed))
        # the returned relabelings rebuild the block
        assert np.array_equal(block, bifactor._circulant(q, r)[row_perm][:, col_perm])
        assert PointSet(q, np.flatnonzero(block)).is_regular(r)


def test_relabeled_circulants_block_depends_only_on_its_seed():
    q, rs = 11, [0, 3, 5, 11, 3]
    seeds = [derive_seed(17, b) for b in range(len(rs))]
    blocks = relabeled_circulants(q, rs, seeds)[0]
    # alone, reordered, and next to other seeds, each block is unchanged
    for b, (r, seed) in enumerate(zip(rs, seeds)):
        assert np.array_equal(relabeled_circulants(q, [r], [seed])[0][0], blocks[b])
    order = [4, 2, 0, 3, 1]
    shuffled = relabeled_circulants(q, [rs[b] for b in order], [seeds[b] for b in order])[0]
    assert np.array_equal(shuffled, blocks[order])
    others = relabeled_circulants(q, rs, [seeds[0], 1, seeds[2], 2, seeds[4]])[0]
    assert np.array_equal(others[[0, 2, 4]], blocks[[0, 2, 4]])
    assert not np.array_equal(others[1], blocks[1])


def test_relabeled_circulants_reject_bad_arguments():
    with pytest.raises(ValueError, match="outside"):
        relabeled_circulants(5, [2, 6], [1, 2])
    with pytest.raises(ValueError, match="outside"):
        relabeled_circulants(5, [2, -1], [1, 2])
    with pytest.raises(ValueError, match="seeds"):
        relabeled_circulants(5, [2, 2], [1])
    assert relabeled_circulants(1, [0, 1], [3, 4])[0].tolist() == [[[False]], [[True]]]


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: FeasibilityMatrix(2, 3, [[1.5, 0], [0, 1]]), "entry 1.5 is not"),
        (lambda: FeasibilityMatrix(2, 3, [[float("nan"), 0], [0, 1]]), "entry nan is not"),
        (lambda: FeasibilityMatrix(1, 5, [["3"]]), "entry of dtype <U1"),
        (lambda: FeasibilityMatrix(1, 5, [[True]]), "entry of dtype bool"),
        (lambda: FeasibilityMatrix(2, 2.5, [[1, 0], [0, 1]]), "block_side must be an integer"),
        (lambda: FeasibilityMatrix(2.0, 3, [[1, 0], [0, 1]]), "m must be an integer"),
        (lambda: relabeled_circulants(4, [2.5], [1]), "regularity 2.5 is not"),
        (lambda: sample_blocks(4, [2.5], [1]), "regularity 2.5 is not"),
        (lambda: sample_r_factor(4, 2.5, seed=1), "regularity 2.5 is not"),
        (lambda: bifactor._circulant(4, 2.5), "regularity 2.5 is not"),
    ],
    ids=[
        "matrix-entry-1.5", "matrix-entry-nan", "matrix-entry-str", "matrix-entry-bool",
        "matrix-block-side-2.5", "matrix-m-2.0", "relabeled-circulants", "sample-blocks",
        "sample-r-factor", "circulant",
    ],
)
def test_degrees_and_matrix_entries_reject_non_integers(call, match):
    # an int64 cast would make degree 2.5 a 2-regular block and entry 1.5
    # the entry 1, and block side 2.5 would give a matrix with n == 5.0
    with pytest.raises(ValueError, match=match):
        call()


def test_degrees_take_whole_floats():
    assert np.array_equal(
        relabeled_circulants(4, [2.0], [1])[0], relabeled_circulants(4, [2], [1])[0]
    )
    assert np.array_equal(sample_blocks(4, np.array([2.0]), [1]), sample_blocks(4, [2], [1]))


def test_relabeled_circulants_cell_and_same_row_pair_laws():
    # every cell is set with probability r/q and every two cells of one
    # row (or column) together with r(r-1)/(q(q-1)), exactly; each count
    # over independent blocks is checked by its normal approximation,
    # with the limit z <= 5 fixed in advance
    q, r, trials = 6, 2, 3000
    blocks = relabeled_circulants(q, [r] * trials, [derive_seed(505, t) for t in range(trials)])[0]
    cells = blocks.astype(np.int64)

    def z_scores(counts, p):
        return (counts - trials * p) / np.sqrt(trials * p * (1 - p))

    assert np.abs(z_scores(cells.sum(axis=0), r / q)).max() <= 5
    pair = r * (r - 1) / (q * (q - 1))
    off_diagonal = ~np.eye(q, dtype=bool)
    rows = np.einsum("tac,tad->acd", cells, cells)[:, off_diagonal]
    cols = np.einsum("tac,tbc->cab", cells, cells)[:, off_diagonal]
    assert np.abs(z_scores(rows, pair)).max() <= 5
    assert np.abs(z_scores(cols, pair)).max() <= 5


def test_split_marks_exactly_the_smallest_keys_under_ties():
    rng = np.random.default_rng(5)
    # keys from a handful of values, so thresholds are often tied
    keys = rng.integers(0, 4, (200, 9)) / 4
    keys[:3] = [[0.5, 0.25, 0.25, 0.75, 1.5, 0.0, 1.0, 0.5, 0.25]] * 3
    keep_a = rng.integers(0, 9, 200)
    keep_a[:3] = [1, 2, 0]
    to_a = _split(keys, keep_a)
    assert (np.count_nonzero(to_a, axis=1) == keep_a).all()
    for row, chosen, want in zip(keys, to_a, keep_a):
        if 0 < want < row.size:
            assert row[chosen].max() <= row[~chosen].min()
    assert to_a[0].tolist() == [False] * 5 + [True] + [False] * 3
    assert sorted(keys[1][to_a[1]]) == [0.0, 0.25]


def _blocks_sha256(blocks):
    return hashlib.sha256(str(blocks.shape).encode() + blocks.tobytes()).hexdigest()


# sha256 of the (B, q, q) bool bytes of sample_blocks at odd q, where one
# row sits out every round, with empty, 1-regular, mid and full blocks
GOLDEN_ODD_BLOCKS = {
    7: "854e6b1798bf1165147bdaf02985552c0061aa34514fbe3f264aec4ee5bbe373",
    13: "432dc434469714bbefd0c3cdf65b49564d56468073861e6e7e1e0e79b11ae392",
}


@pytest.mark.parametrize("q", sorted(GOLDEN_ODD_BLOCKS))
def test_sample_blocks_golden_bytes_at_odd_q(q):
    rs = [0, 1, q // 2, q, 1, q // 2]
    seeds = [derive_seed(808, q, b) for b in range(len(rs))]
    blocks = sample_blocks(q, rs, seeds)
    assert _blocks_sha256(blocks) == GOLDEN_ODD_BLOCKS[q]


class _QuarterKeys:
    """A generator whose random(out=) keys are multiples of 1/4, so the
    split thresholds of a round are often tied."""

    default_rng = np.random.default_rng

    def __init__(self, seed):
        self._rng = _QuarterKeys.default_rng(seed)

    def permutation(self, n):
        return self._rng.permutation(n)

    def random(self, out):
        out[...] = self._rng.integers(0, 4, out.shape) / 4


# sha256 of sample_blocks(q, rs, seeds) under _QuarterKeys, as above
GOLDEN_TIED_BLOCKS = {
    8: "92a1ce5abe27be641c000fa97dfb33661156c64bc3635d95b845af11eae9e2e9",
    13: "0c6d1aa8d19eea0d456171e6209da7fa721a765c1bbd0cb293a09aa41d26055e",
}


@pytest.mark.parametrize("q", sorted(GOLDEN_TIED_BLOCKS))
def test_sample_blocks_golden_bytes_under_tied_keys(q):
    rs = [1, 2, q // 2, q - 1, 0]
    seeds = [derive_seed(909, q, b) for b in range(len(rs))]
    with mock.patch.object(np.random, "default_rng", _QuarterKeys):
        blocks = sample_blocks(q, rs, seeds)
    for block, r in zip(blocks, rs):
        assert (block.sum(axis=0) == r).all() and (block.sum(axis=1) == r).all()
    assert _blocks_sha256(blocks) == GOLDEN_TIED_BLOCKS[q]


@pytest.mark.parametrize("m, r", [(4, 2), (5, 1)])
def test_sampler_matches_uniform_on_enumerated_factors(m, r):
    # about 30 samples per factor; chi-square against uniform over the
    # brute-force state space, by its normal approximation with the
    # limit z <= 5 fixed in advance
    states = all_r_factors(m, r)
    per_state = 30
    samples = per_state * len(states)
    counts = Counter(
        frozenset(sample_r_factor(m, r, derive_seed(606, m, r, i)).sorted_xy())
        for i in range(samples)
    )
    assert set(counts) <= set(states)
    chi2 = sum((counts[s] - per_state) ** 2 / per_state for s in states)
    dof = len(states) - 1
    z = (chi2 - dof) / (2 * dof) ** 0.5
    assert z <= 5, (chi2, dof, z)


def test_sample_moves_off_the_circulant_start():
    f = sample_r_factor(20, 6, seed=3)
    assert f != _circulant(20, 6)


def test_one_factorize_circulant_two_factor():
    f = _circulant(4, 2)
    matchings = list(iter_matchings(f))
    assert len(matchings) == 2
    c0, c1 = _cells(matching_cells(4, matchings[:1])), _cells(matching_cells(4, matchings[1:]))
    assert c0.isdisjoint(c1)
    assert c0 | c1 == _cells(f)


def test_one_factorize_single_factor_is_identity_of_input():
    cells = {(1, 2), (2, 1), (3, 3)}
    f = PointSet.from_points(3, cells)
    matchings = list(iter_matchings(f))
    assert len(matchings) == 1
    assert matching_cells(3, matchings[:1]) == f
    assert _cells(matching_cells(3, matchings[:1])) == cells


def test_one_factorize_complete_graph_latin_square():
    m = 6
    f = PointSet.from_points(m, [(a, b) for a in range(1, 7) for b in range(1, 7)])
    matchings = list(iter_matchings(f))
    assert len(matchings) == m
    assert matching_cells(m, matchings) == f
    for t in range(m):
        assert sorted(matchings[t]) == list(range(1, m + 1))


def test_one_factorize_random_factors_roundtrip():
    rng = random.Random(23)
    for trial in range(8):
        m = rng.randint(2, 60)
        r = rng.randint(0, m)
        f = sample_r_factor(m, r, seed=100 + trial)
        matchings = list(iter_matchings(f))
        assert len(matchings) == r
        seen = set()
        for t in range(r):
            cells = _cells(matching_cells(m, matchings[t : t + 1]))
            assert not (cells & seen)
            seen |= cells
        assert seen == _cells(f)


def test_one_factorize_is_deterministic():
    f = sample_r_factor(15, 6, seed=5)
    assert list(iter_matchings(f)) == list(iter_matchings(f))


def _permuted_circulant_xy(m, r, seed):
    """Cells (xs, ys) of the circulant r-factor under row and column
    permutations drawn from random.Random(seed); independent of the
    Curveball sampler."""
    rng = random.Random(seed)
    rows = list(range(1, m + 1))
    cols = list(range(1, m + 1))
    rng.shuffle(rows)
    rng.shuffle(cols)
    xs, ys = _circulant(m, r).xy()
    return np.array(rows)[xs - 1], np.array(cols)[ys - 1]


def _permuted_circulant(m, r, seed):
    return PointSet.from_xy(m, *_permuted_circulant_xy(m, r, seed))


# first matchings extracted by the eager 1-factorization before extraction
# became lazy; any change to the extraction order moves the output bytes
# of construct.spend
GOLDEN_MATCHINGS = {
    (8, 3, 1): (
        (8, 1, 3, 5, 6, 2, 7, 4),
        (4, 2, 7, 3, 8, 1, 5, 6),
        (6, 5, 8, 7, 3, 4, 1, 2),
    ),
    (11, 6, 2): (
        (2, 1, 3, 4, 5, 7, 6, 8, 10, 11, 9),
        (5, 11, 1, 6, 9, 10, 7, 4, 3, 8, 2),
        (8, 2, 7, 5, 3, 11, 10, 9, 6, 1, 4),
    ),
    (16, 7, 3): (
        (3, 4, 5, 1, 2, 7, 6, 16, 10, 12, 9, 15, 13, 8, 11, 14),
        (4, 3, 7, 15, 1, 5, 9, 2, 11, 8, 10, 6, 14, 13, 12, 16),
        (9, 7, 16, 4, 5, 11, 13, 12, 2, 10, 6, 8, 15, 1, 14, 3),
    ),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_MATCHINGS))
def test_iter_matchings_golden_prefix(key):
    m, r, seed = key
    f = _permuted_circulant(m, r, seed)
    want = GOLDEN_MATCHINGS[key]
    assert tuple(islice(iter_matchings(f), len(want))) == want
    assert tuple(iter_matchings(f))[: len(want)] == want


@given(
    m=st.integers(1, 70),
    r=st.integers(0, 70),
    seed=st.integers(0, 2**32),
    keys=st.lists(st.integers(0, 70 * 70 - 1), max_size=200),
)
@example(m=13, r=0, seed=1, keys=[])
@example(m=13, r=13, seed=1, keys=[168, 0, 168])
@example(m=70, r=70, seed=2, keys=[4899, 0])
@example(m=1, r=1, seed=3, keys=[0])
@settings(max_examples=100, deadline=None)
def test_row_bitsets_match_bitwise_or_oracle(m, r, seed, keys):
    # an r-factor (r = 0 and r = m among the examples) and an arbitrary
    # cell set, its keys unsorted and repeated
    factor = sample_r_factor(m, min(r, m), seed)
    cells = PointSet(m, np.array(keys, dtype=np.int64) % (m * m))
    for points in (factor, cells):
        assert _row_bitsets(points) == row_bitsets_by_or_at(points)


def test_row_bitsets_peak_memory_is_at_most_2_m_squared_bytes():
    m, r = 400, 240
    points = _circulant(m, r)
    tracemalloc.start()
    try:
        rowbits = _row_bitsets(points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rowbits == row_bitsets_by_or_at(points)
    assert peak <= 2 * m * m


@pytest.mark.parametrize("key", sorted(GOLDEN_MATCHINGS))
def test_iter_matchings_golden_prefix_from_raw_keys(key):
    # the same factors handed over as shuffled keys with repeats: the
    # adjacency sliced out of the stored sorted keys must not depend on
    # the order the keys came in
    m, r, seed = key
    xs, ys = _permuted_circulant_xy(m, r, seed)
    keys = (xs - 1) * m + (ys - 1)
    keys = np.random.default_rng(seed).permutation(np.concatenate([keys, keys[::2]]))
    f = PointSet(m, keys)
    want = GOLDEN_MATCHINGS[key]
    assert tuple(islice(iter_matchings(f), len(want))) == want


@given(m=st.integers(1, 24), data=st.data())
@settings(max_examples=60, deadline=None)
def test_iter_matchings_prefix_is_disjoint_perfect_matchings(m, data):
    r = data.draw(st.integers(0, m))
    t = data.draw(st.integers(0, r))
    f = sample_r_factor(m, r, seed=data.draw(st.integers(0, 2**32)))
    seen: set[tuple[int, int]] = set()
    prefix = list(islice(iter_matchings(f), t))
    assert len(prefix) == t
    for matching in prefix:
        assert sorted(matching) == list(range(1, m + 1))
        cells = set(enumerate(matching, start=1))
        assert all(cell in f for cell in cells)
        assert seen.isdisjoint(cells)
        seen |= cells


@st.composite
def _side_and_degree(draw):
    m = draw(st.integers(1, 40))
    return m, draw(st.integers(0, m))


@given(mr=_side_and_degree(), circulant=st.booleans(), seed=st.integers(0, 2**32))
@example(mr=(9, 7), circulant=False, seed=4)
@example(mr=(13, 0), circulant=True, seed=1)
@example(mr=(40, 40), circulant=True, seed=2)
@example(mr=(100, 50), circulant=False, seed=5)  # a first phase of 100 one-edge paths
@settings(max_examples=120, deadline=None)
def test_iter_matchings_follows_list_based_extraction(mr, circulant, seed):
    # same matchings, and the same rows expanded and entered in each
    # extraction: a row the DFS enters twice, or one it misses, moves
    # the read counts even where the matching comes out the same
    m, r = mr
    f = _permuted_circulant(m, r, seed) if circulant else sample_r_factor(m, r, seed=seed)
    matcher = bifactor._hopcroft_karp
    reads = []

    def counting(m, rowbits):
        rows = ReadCounter(rowbits)
        reads.append(rows.reads)
        return matcher(m, rows)

    with mock.patch.object(bifactor, "_hopcroft_karp", counting):
        got = list(iter_matchings(f))
    assert (got, reads) == matchings_by_lists(m, f.sorted_xy())


def test_containment_probability_trivial_cases():
    assert matching_containment_probability(5, 5, 3, trials=3, seed=0) == 1.0
    assert matching_containment_probability(5, 0, 1, trials=3, seed=0) == 0.0


def test_containment_probability_rejects_bad_sizes():
    with pytest.raises(ValueError):
        matching_containment_probability(5, 2, 0, trials=3, seed=0)
    with pytest.raises(ValueError):
        matching_containment_probability(5, 2, 6, trials=3, seed=0)
    with pytest.raises(ValueError):
        matching_containment_probability(5, 2, 2, trials=0, seed=0)


def test_containment_probability_tracks_density():
    # single-cell containment frequency approximates r/m
    p = matching_containment_probability(10, 3, 1, trials=400, seed=9)
    assert abs(p - 0.3) < 0.15


def test_row_exchangeability_under_relabeling():
    # composing the sampler with a random row relabeling makes rows
    # exchangeable; compare a row-1 vs row-2 statistic over many samples
    m, r = 12, 4
    half = {b for b in range(1, m // 2 + 1)}
    rng = random.Random(77)
    t1 = t2 = 0
    samples = 300
    for i in range(samples):
        f = sample_r_factor(m, r, seed=derive_seed(55, i))
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        relabeled = {(perm[a - 1], b) for a, b in f.sorted_xy()}
        t1 += sum(1 for a, b in relabeled if a == 1 and b in half)
        t2 += sum(1 for a, b in relabeled if a == 2 and b in half)
    mean1 = t1 / samples
    mean2 = t2 / samples
    # each statistic has variance <= r; 5 standard errors of the difference
    tol = 5 * (2 * r / samples) ** 0.5
    assert abs(mean1 - mean2) <= tol
