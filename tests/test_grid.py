"""Tests for grid types, block matrices and the exact load evaluator."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nkline.grid import (
    MAX_SIDE,
    Direction,
    FeasibilityMatrix,
    PointSet,
    _directions_of_modulus,
    expected_load,
    feasibility_matrix_3x3,
    feasibility_matrix_4x4,
    is_feasible,
    line_points,
    max_expected_load,
)

from oracles import (
    brute_max_expected_load,
    expected_load_by_scan,
    heaviest_line_by_scan,
    scan_max_expected_load,
)


def test_gridspec_rejects_nonpositive():
    # the grid side lives on PointSet; it must be >= 1 and small enough
    # for its keys (x-1)*n + (y-1) to fit in int64
    for n in (0, -3, MAX_SIDE + 1):
        with pytest.raises(ValueError):
            PointSet(n, [])
        with pytest.raises(ValueError):
            PointSet.from_points(n, [])
    assert len(PointSet(MAX_SIDE, [MAX_SIDE**2 - 1])) == 1


def test_direction_validation():
    d = Direction(2, -3)
    assert d.modulus == 3
    with pytest.raises(ValueError):
        Direction(0, 1)
    with pytest.raises(ValueError):
        Direction(1, 0)
    with pytest.raises(ValueError):
        Direction(2, 4)


def test_pointset_bounds_and_membership():
    s = PointSet.from_points(3, [(1, 1), (2, 3)])
    assert (1, 1) in s and (2, 2) not in s
    assert len(s) == 2
    with pytest.raises(ValueError):
        PointSet.from_points(3, [(0, 1)])
    with pytest.raises(ValueError):
        PointSet.from_points(3, [(1, 4)])


def test_pointset_sorted_xy_order():
    s = PointSet.from_points(3, [(3, 1), (1, 2), (2, 1)])
    assert s.sorted_xy() == [(1, 2), (2, 1), (3, 1)]


@given(
    n=st.sampled_from([1, 2, 999, 1000, 1001, 999_999, 10**6, 10**6 + 1, MAX_SIDE])
    | st.integers(1, MAX_SIDE),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_xy_matches_python_divmod(n, data):
    top = n * n - 1
    key = st.integers(0, top) | st.integers(max(0, top - 2 * n), top)
    keys = sorted(data.draw(st.sets(key, max_size=20)) | {top})
    xs, ys = PointSet(n, keys).xy()
    assert (xs.dtype, ys.dtype) == (np.int64, np.int64)
    expected = [divmod(key, n) for key in keys]
    assert list(zip(xs.tolist(), ys.tolist())) == [(x + 1, y + 1) for x, y in expected]


def _is_regular_by_lists(s, r):
    full = [r] * s.n
    return len(s) == r * s.n and s.row_counts() == full and s.col_counts() == full


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_is_regular_matches_list_rule_on_near_misses(data):
    n = data.draw(st.integers(2, 12))
    r = data.draw(st.integers(1, n - 1))
    cells = {(x, (x + j) % n) for x in range(n) for j in range(r)}
    # move one point along its column: the total stays, one row goes to
    # r - 1 and another to r + 1
    x = data.draw(st.integers(0, n - 1))
    column = sorted(y for a, y in cells if a == x)
    y = data.draw(st.sampled_from(column))
    to = data.draw(st.sampled_from(sorted(set(range(n)) - set(column))))
    moved = (cells - {(x, y)}) | {(x, to)}
    transpose = data.draw(st.booleans())
    for pts, regular in ((cells, True), (moved, False)):
        if transpose:
            pts = {(b, a) for a, b in pts}
        s = PointSet.from_points(n, [(a + 1, b + 1) for a, b in pts])
        assert s.is_regular(r) is regular
        for rr in (r - 1, r, r + 1):
            assert s.is_regular(rr) == _is_regular_by_lists(s, rr)


def test_pointset_keys_are_sorted_unique_and_read_only():
    s = PointSet(4, [15, 0, 6, 0, 4])
    assert s.keys.tolist() == [0, 4, 6, 15]
    assert s.sorted_xy() == [(1, 1), (2, 1), (2, 3), (4, 4)]
    xs, ys = s.xy()
    assert xs.tolist() == [1, 2, 2, 4] and ys.tolist() == [1, 1, 3, 4]
    assert s == PointSet.from_xy(4, xs, ys)
    with pytest.raises(ValueError):
        s.keys[0] = 5
    with pytest.raises(AttributeError):
        s.keys = s.keys.copy()
    assert s.keys.tolist() == [0, 4, 6, 15]
    for bad in ([-1], [16]):
        with pytest.raises(ValueError):
            PointSet(4, bad)


def test_pointset_sorted_input_takes_a_private_copy():
    keys = np.array([0, 4, 6, 15], dtype=np.int64)
    s = PointSet(4, keys)
    assert keys.flags.writeable
    keys[0] = 1
    assert s.keys.tolist() == [0, 4, 6, 15]
    assert not s.keys.flags.writeable


def test_pointset_sorted_input_is_still_bounds_checked():
    for bad in ([-1, 0, 3], [0, 3, 16], [16]):
        with pytest.raises(ValueError):
            PointSet(4, np.array(bad, dtype=np.int64))


@pytest.mark.parametrize("keys", [[6, 0, 4], [0, 4, 4, 6], [6, 6, 4, 0, 0], [3, 3]])
def test_pointset_unsorted_or_repeated_keys_come_out_sorted_unique(keys):
    assert PointSet(4, np.array(keys)).keys.tolist() == sorted(set(keys))


NOT_INTEGERS = [1.5, 2.7, -0.5, float("nan"), float("inf"), float("-inf"), 1e20, -(2.0**63) - 4096, "3"]


@pytest.mark.parametrize("bad", NOT_INTEGERS)
def test_pointset_rejects_keys_that_are_not_integers(bad):
    # np.asarray(..., dtype=int64) would truncate 1.5 and 2.7 to keys 1, 2
    with pytest.raises(ValueError):
        PointSet(5, [0, bad])
    with pytest.raises(ValueError):
        PointSet(5, np.array([bad]))


def test_pointset_rejects_bool_arrays():
    with pytest.raises(ValueError):
        PointSet(5, np.array([True, False]))
    with pytest.raises(ValueError):
        PointSet.from_xy(5, np.array([True]), np.array([True]))


@pytest.mark.parametrize("bad", NOT_INTEGERS)
def test_pointset_from_xy_rejects_coordinates_that_are_not_integers(bad):
    # (1.9, 2.2) would otherwise be the point (1, 2)
    with pytest.raises(ValueError):
        PointSet.from_xy(5, [1, bad], [2, 2])
    with pytest.raises(ValueError):
        PointSet.from_xy(5, [2], [bad])
    with pytest.raises(ValueError):
        PointSet.from_points(5, [(1, 1), (bad, 2)])


def test_pointset_takes_empty_integer_and_whole_float_input():
    assert len(PointSet(5, [])) == 0
    assert len(PointSet.from_xy(5, [], [])) == 0
    assert len(PointSet.from_points(5, [])) == 0
    for dtype in (np.int8, np.int32, np.int64, np.uint16, np.uint64):
        assert PointSet(5, np.array([7, 3], dtype=dtype)).keys.tolist() == [3, 7]
    assert PointSet(5, [3.0, 7.0]).keys.tolist() == [3, 7]
    assert PointSet.from_xy(5, np.array([2.0]), np.array([3])) == PointSet(5, [7])


@given(mask=st.integers(1, 24).flatmap(lambda n: arrays(bool, (n, n))))
@example(mask=np.zeros((1, 1), dtype=bool))
@example(mask=np.ones((1, 1), dtype=bool))
@example(mask=np.zeros((7, 7), dtype=bool))
@settings(max_examples=100, deadline=None)
def test_pointset_from_mask_round_trips(mask):
    s = PointSet.from_mask(mask)
    assert s == PointSet(len(mask), np.flatnonzero(mask))
    assert np.array_equal(s.mask(), mask)
    assert not s.keys.flags.writeable


@pytest.mark.parametrize(
    "mask",
    [
        np.ones((3, 3), dtype=np.uint8),
        np.ones((3, 3), dtype=np.int64),
        np.ones((2, 3), dtype=bool),
        np.ones(9, dtype=bool),
        np.ones((2, 2, 2), dtype=bool),
        np.zeros((0, 0), dtype=bool),
    ],
    ids=["uint8", "int64", "2x3", "flat", "3-d", "0x0"],
)
def test_pointset_from_mask_rejects_non_bool_non_square_and_empty_masks(mask):
    with pytest.raises(ValueError, match="non-empty square bool mask"):
        PointSet.from_mask(mask)


def test_line_points_slope_one():
    d = Direction(1, 1)
    assert line_points(4, d, 0) == [(1, 1), (2, 2), (3, 3), (4, 4)]
    assert line_points(40, d, 10)[0] == (11, 1)
    assert len(line_points(40, d, 10)) == 30


def test_line_points_negative_slope_and_steep():
    d = Direction(1, -1)
    pts = line_points(3, d, 5)  # y = -x + ... : vy*x - vx*y = -x - y = ... c=-5
    # c = -x - y = 5 has no solutions in [1,3]^2; use c = -4: x + y = 4
    assert pts == []
    pts = line_points(3, d, -4)
    assert pts == [(1, 3), (2, 2), (3, 1)]
    d2 = Direction(2, 1)
    pts = line_points(5, d2, 1)  # x - 2y = 1
    assert pts == [(3, 1), (5, 2)]


@given(
    n=st.integers(2, 20),
    vx=st.integers(1, 6),
    vy=st.integers(-6, 6).filter(lambda v: v != 0),
    x=st.integers(1, 20),
    y=st.integers(1, 20),
)
@settings(max_examples=200)
def test_line_points_hits_seed_point(n, vx, vy, x, y):
    from math import gcd

    if gcd(vx, abs(vy)) != 1 or x > n or y > n:
        return
    d = Direction(vx, vy)
    pts = line_points(n, d, d.intercept(x, y))
    assert (x, y) in pts
    for px, py in pts:
        assert d.intercept(px, py) == d.intercept(x, y)


def test_matrix_4x4_values_and_sums():
    mat = feasibility_matrix_4x4(40, 30)
    for i in range(1, 5):
        for j in range(1, 5):
            expect = 6 if (i == j or i + j == 5) else 9
            assert mat.entries[i - 1][j - 1] == expect
    assert mat.row_sums() == [30] * 4
    assert mat.col_sums() == [30] * 4
    assert Fraction(mat.entries[0][0], mat.block_side) == Fraction(6, 10)


def test_matrix_4x4_small_case():
    mat = feasibility_matrix_4x4(12, 10)
    assert mat.entries[0][0] == 2 and mat.entries[0][1] == 3
    assert mat.row_sums() == [10] * 4


def test_matrix_4x4_rejects_bad_k():
    with pytest.raises(ValueError):
        feasibility_matrix_4x4(40, 31)
    with pytest.raises(ValueError):
        feasibility_matrix_4x4(41, 30)
    with pytest.raises(ValueError):
        feasibility_matrix_4x4(12, 20)  # 20 > 5*12/6


def test_matrix_3x3_values_and_sums():
    mat = feasibility_matrix_3x3(30, 20)
    assert mat.entries == ((6, 8, 6), (8, 4, 8), (6, 8, 6))
    assert mat.row_sums() == [20] * 3
    assert mat.col_sums() == [20] * 3


def test_matrix_3x3_rejects_bad_args():
    with pytest.raises(ValueError):
        feasibility_matrix_3x3(30, 25)
    with pytest.raises(ValueError):
        feasibility_matrix_3x3(9, 10)  # entry 4 > block side 3


def test_feasibility_matrix_stores_int_tuples_and_validates():
    mat = FeasibilityMatrix(2, 3, [np.array([1, 2]), [3, 0]])
    assert mat.entries == ((1, 2), (3, 0))
    assert all(type(v) is int for row in mat.entries for v in row)
    assert mat == FeasibilityMatrix(2, 3, ((1, 2), (3, 0)))
    # whole floats and numpy integers still work
    assert mat == FeasibilityMatrix(np.int64(2), np.int32(3), np.array([[1.0, 2.0], [3.0, 0.0]]))
    assert repr(mat) == "FeasibilityMatrix(m=2, block_side=3, entries=((1, 2), (3, 0)))"
    for args, match in [
        ((0, 3, []), "m and block_side must be positive"),
        ((2, 3, [[1, 2]]), "entries must be 2x2"),
        ((2, 3, [[1, 4], [0, 0]]), r"entry 4 outside \[0, 3\]"),
    ]:
        with pytest.raises(ValueError, match=match):
            FeasibilityMatrix(*args)


def test_expected_load_main_diagonal():
    mat = feasibility_matrix_4x4(40, 30)
    d = Direction(1, 1)
    load = expected_load(mat, d, 0)
    assert load == expected_load_by_scan(mat, 1, 1, 0)
    assert load == 24
    assert load == Fraction(4, 5) * 30


def test_expected_load_offset_diagonal():
    mat = feasibility_matrix_4x4(40, 30)
    d = Direction(1, 1)
    load = expected_load(mat, d, 10)
    assert load == expected_load_by_scan(mat, 1, 1, 10)
    assert load == 24  # 9 + 6 + 9


def test_expected_load_zero_matrix():
    mat = FeasibilityMatrix(4, 3, [[0] * 4] * 4)
    assert expected_load(mat, Direction(1, 1), 0) == 0


def test_expected_load_rejects_thin_lines():
    mat = feasibility_matrix_4x4(12, 10)
    with pytest.raises(ValueError):
        expected_load(mat, Direction(1, 1), 11)  # single point (12,1)


def test_expected_load_block_additivity():
    mat = feasibility_matrix_4x4(16, 10)
    d = Direction(1, 2)
    pts = [(x, y) for x in range(1, 17) for y in range(1, 17) if 2 * x - y == 5]
    per_block = {}
    for x, y in pts:
        b = ((x - 1) // 4, (y - 1) // 4)
        per_block[b] = per_block.get(b, 0) + 1
    total = sum(
        Fraction(mat.entries[i][j], 4) * g for (i, j), g in per_block.items()
    )
    assert expected_load(mat, d, 5) == total
    for (i, j), g in per_block.items():
        assert Fraction(mat.entries[i][j], 4) * g <= Fraction(mat.entries[i][j], mat.block_side) * 4


def test_max_expected_load_4x4_exact():
    mat = feasibility_matrix_4x4(40, 30)
    assert max_expected_load(mat) == 24


def test_max_expected_load_3x3_exact():
    mat = feasibility_matrix_3x3(30, 20)
    assert max_expected_load(mat) == 16


def test_max_expected_load_zero_matrix():
    mat = FeasibilityMatrix(4, 2, [[0] * 4] * 4)
    assert max_expected_load(mat) == 0


def test_max_expected_load_witness_attains_max():
    mat = feasibility_matrix_4x4(16, 10)
    load, (d, c) = max_expected_load(mat, with_witness=True)
    assert expected_load(mat, d, c) == load


def _all_block_counts_up_to(limit):
    out = []
    for m in (3, 4):
        for n in range(m, limit + 1, m):
            out.append((m, n))
    return out


@pytest.mark.parametrize("m,n", _all_block_counts_up_to(24))
def test_max_expected_load_matches_bruteforce_random(m, n):
    import random

    rng = random.Random(1000 * m + n)
    q = n // m
    entries = [[rng.randint(0, q) for _ in range(m)] for _ in range(m)]
    mat = FeasibilityMatrix(m, q, entries)
    assert max_expected_load(mat) == brute_max_expected_load(mat)


def test_max_expected_load_matches_bruteforce_builtins():
    for mat in (feasibility_matrix_4x4(16, 10), feasibility_matrix_3x3(12, 10)):
        assert max_expected_load(mat) == brute_max_expected_load(mat)


@st.composite
def block_matrices(draw):
    m = draw(st.integers(1, 5))
    q = draw(st.integers(1, 6))
    entry = st.integers(0, q)
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
    return FeasibilityMatrix(m, q, rows)


@settings(max_examples=20, deadline=None)
@given(block_matrices())
# only the single-point corner line (1,-1), c = -6 ties the maximum weight
@example(FeasibilityMatrix(3, 1, [[0, 0, 0], [0, 0, 0], [0, 0, 1]]))
# asymmetric: the heaviest line of the transposed matrix is lighter here
@example(FeasibilityMatrix(3, 1, [[1, 1, 0], [0, 0, 1], [1, 0, 0]]))
def test_max_expected_load_witness_is_first_heaviest_line(mat):
    load, line = max_expected_load(mat, with_witness=True)
    assert load == brute_max_expected_load(mat)
    if load == 0:
        assert line is None
        return
    d, c = line
    assert expected_load(mat, d, c) == load
    assert expected_load_by_scan(mat, d.vx, d.vy, c) == load
    # the smallest heaviest intercept of the witness direction ...
    assert heaviest_line_by_scan(mat, d.vx, d.vy) == (load, c)
    # ... which is the first direction in (modulus, vx, vy) order to reach the maximum
    earlier = [e for M in range(1, d.modulus + 1) for e in _directions_of_modulus(M)]
    for e in earlier[: earlier.index(d)]:
        assert heaviest_line_by_scan(mat, e.vx, e.vy)[0] < load


def test_max_expected_load_transient_memory_is_under_n_squared_bytes():
    # one q x q block histogram and one direction's line weights, never
    # an n x n grid
    import tracemalloc

    mat = feasibility_matrix_4x4(400, 120)
    n = mat.n
    tracemalloc.start()
    try:
        max_expected_load(mat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= n * n + 256 * 1024


@st.composite
def wide_block_matrices(draw):
    # the pair-enumeration oracle is O(n^4), so n = m*q stays <= 24
    m = draw(st.integers(1, 6))
    q = draw(st.integers(1, min(12, 24 // m)))
    entry = st.integers(0, q)
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
    return FeasibilityMatrix(m, q, rows)


@settings(max_examples=12, deadline=None)
@given(wide_block_matrices())
@example(FeasibilityMatrix(1, 12, [[7]]))
@example(FeasibilityMatrix(6, 1, [[(i * j) % 2 for j in range(6)] for i in range(6)]))
@example(FeasibilityMatrix(6, 4, [[(i + 2 * j) % 5 for j in range(6)] for i in range(6)]))
def test_max_expected_load_matches_bruteforce_on_block_matrices(mat):
    assert max_expected_load(mat) == brute_max_expected_load(mat)


@st.composite
def wider_block_matrices(draw):
    m = draw(st.integers(1, 6))
    q = draw(st.integers(1, 12))
    entry = st.integers(0, q)
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
    return FeasibilityMatrix(m, q, rows)


@settings(max_examples=80, deadline=None)
@given(wider_block_matrices())
@example(FeasibilityMatrix(6, 12, [[(5 * i + 7 * j) % 13 for j in range(6)] for i in range(6)]))
@example(FeasibilityMatrix(6, 12, [[12 * ((i + j) % 2) for j in range(6)] for i in range(6)]))
@example(FeasibilityMatrix(4, 12, [[3, 4, 3, 2], [4, 2, 4, 2], [3, 4, 3, 2], [2, 2, 2, 12]]))
# the heaviest line, (1,1)-(2,3), reaches the modulus-2 cap exactly
@example(FeasibilityMatrix(3, 1, [[1, 0, 0], [0, 0, 1], [0, 0, 0]]))
def test_max_expected_load_matches_scan_oracle_up_to_n_72(mat):
    load, line = max_expected_load(mat, with_witness=True)
    want, witness = scan_max_expected_load(mat)
    assert load == want
    assert (line and (line[0].vx, line[0].vy, line[1])) == witness
    if mat.n <= 24:
        assert load == brute_max_expected_load(mat)


def test_slope_one_load_piecewise_linear():
    # For the 4x4 matrix the load along slope-1 lines is linear in the
    # offset on each span between multiples of n/4.
    mat = feasibility_matrix_4x4(40, 30)
    d = Direction(1, 1)
    segments = [(0, 10), (10, 20), (20, 30), (30, 38)]
    for lo, hi in segments:
        for c in range(lo + 1, hi):
            left = expected_load(mat, d, c - 1)
            mid = expected_load(mat, d, c)
            right = expected_load(mat, d, c + 1)
            assert left + right == 2 * mid


def test_is_feasible_4x4_matrix():
    mat = feasibility_matrix_4x4(40, 30)
    assert is_feasible(mat, 30, Fraction(4, 5)).ok


def test_is_feasible_tight_delta_fails_with_line_witness():
    mat = feasibility_matrix_4x4(40, 30)
    check = is_feasible(mat, 30, Fraction(79, 100))
    assert not check.ok
    kind, d, c, load = check.witness
    assert kind == "line"
    assert load == expected_load(mat, d, c)
    assert load > Fraction(79, 100) * 30


def test_is_feasible_bad_row_sum():
    entries = [[6, 9, 9, 6], [9, 6, 6, 9], [9, 6, 6, 9], [6, 9, 9, 5]]
    mat = FeasibilityMatrix(4, 10, entries)
    check = is_feasible(mat, 30, Fraction(4, 5))
    assert not check.ok
    assert check.witness == ("row", 4)


def test_is_feasible_rejects_delta_ge_one():
    with pytest.raises(ValueError):
        is_feasible(feasibility_matrix_4x4(40, 30), 30, 1)
