"""Tests for the sweep verifier and the rich-secant census."""

import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from math import gcd, nan, pi
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from nkline.grid import (
    MAX_SIDE,
    Direction,
    PointSet,
    _directions_of_modulus,
    _narrowest_int,
    feasibility_matrix_4x4,
    line_points,
)
from nkline import secants
from nkline.construct import ConstructionError, RetriesExhausted, _sample_retry, pipeline
from nkline.secants import census, count_on_line, richness_bound, verify

from oracles import (
    brute_generic_max,
    census_by_coprime_pairs,
    census_by_pairs,
    first_fullest_line,
    generic_max_by_cap,
    grid_line_sizes,
)


def _verify_both(points, k, reserve=0):
    """verify(points, k, reserve) through the intercept sweep and through
    the mask sweep, by patching the rule that picks one; the two reports
    must agree field for field."""
    reports = []
    for mask in (False, True):
        with mock.patch.object(secants, "_masks_fit", lambda points, nx, ny: mask):
            reports.append(verify(points, k, reserve))
    assert reports[0] == reports[1], reports
    return reports[0]


def _rich_directions(n, t):
    """Directions whose lines can hold >= t grid points of [1,n]^2: the
    modulus classes whose cap (n-1)//M + 1 reaches t."""
    return [d for M in range(1, n) if (n - 1) // M + 1 >= t for d in _directions_of_modulus(M)]


def _oracle_rich_directions(n, t):
    return {(vx, vy) for (vx, vy, _), size in grid_line_sizes(n).items() if size >= t}


def test_primitive_directions_n5_t3():
    dirs = {(d.vx, d.vy) for d in _rich_directions(5, 3)}
    assert dirs == {(1, 1), (1, -1), (1, 2), (1, -2), (2, 1), (2, -1)}
    assert dirs == _oracle_rich_directions(5, 3)


def test_primitive_directions_n3_t3():
    dirs = {(d.vx, d.vy) for d in _rich_directions(3, 3)}
    assert dirs == {(1, 1), (1, -1)} == _oracle_rich_directions(3, 3)


def test_primitive_directions_n2_t3_empty():
    assert _rich_directions(2, 3) == []
    assert _oracle_rich_directions(2, 3) == set()


def test_primitive_directions_rejects_small_threshold():
    # the modulus of a direction is at least 1
    for M in (0, -1):
        with pytest.raises(ValueError):
            _directions_of_modulus(M)


def test_primitive_directions_no_duplicates_and_primitive():
    for M in range(1, 31):
        dirs = [(d.vx, d.vy) for d in _directions_of_modulus(M)]
        expect = [
            (vx, vy)
            for vx in range(1, M + 1)
            for vy in range(-M, M + 1)
            if vy != 0 and max(vx, abs(vy)) == M and gcd(vx, abs(vy)) == 1
        ]
        assert dirs == sorted(expect), M
        assert len(dirs) == len(set(dirs))
        assert {(vx, -vy) for vx, vy in dirs} == set(dirs)


def test_verify_full_grid():
    n = 4
    s = PointSet.from_points(n, [(x, y) for x in range(1, 5) for y in range(1, 5)])
    rep = _verify_both(s, 4, 0)
    assert rep.axis_max == 4
    assert rep.generic_max == 4
    assert rep.achieved_reserve == 0
    assert rep.passed


def test_verify_three_collinear_fails():
    s = PointSet.from_points(3, [(1, 1), (2, 2), (3, 3)])
    rep = _verify_both(s, 2, 0)
    assert not rep.passed
    assert rep.generic_max == 3
    d, c = rep.worst_line
    assert (d.vx, d.vy, c) == (1, 1, 0)


def test_verify_empty_set():
    s = PointSet.from_points(5, [])
    rep = _verify_both(s, 0, 0)
    assert rep.passed
    assert rep.axis_max == 0 and rep.generic_max == 0
    assert rep.worst_line is None and rep.directions_swept == 0
    assert rep.worst_line_text == "none" and "worst_line=none " in rep.summary()


def test_verify_worst_line_recount_matches():
    rng = random.Random(7)
    pts = {(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(40)}
    s = PointSet.from_points(12, pts)
    rep = _verify_both(s, 3, 0)
    d, c = rep.worst_line
    assert count_on_line(s, d, c) == rep.generic_max


def test_verify_matches_bruteforce_generic_max():
    rng = random.Random(99)
    for trial in range(8):
        n = rng.randint(2, 14)
        size = rng.randint(1, n * n)
        pts = set()
        while len(pts) < size:
            pts.add((rng.randint(1, n), rng.randint(1, n)))
        s = PointSet.from_points(n, pts)
        rep = _verify_both(s, n, 0)
        assert rep.generic_max == _expected_generic_max(n, pts)


def _expected_generic_max(n, pts):
    brute, _ = brute_generic_max(pts)
    # a lone point still lies on a generic line once n >= 2
    return max(brute, 1 if pts and n >= 2 else 0)


def _axis_max(s):
    """The fullest row or column of s, counted with bincount."""
    return max(int(np.bincount(v, minlength=s.n + 1).max()) for v in s.xy())


@given(
    n=st.integers(1, 9),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_verify_matches_oracles_on_random_sets(n, data):
    cells = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    pts = set(data.draw(st.lists(st.sampled_from(cells), max_size=n * n)))
    s = PointSet.from_points(n, pts)
    rep = _verify_both(s, n, 0)
    expect = _expected_generic_max(n, pts)
    assert rep.generic_max == expect
    assert rep.axis_max == _axis_max(s)
    for k in range(n + 1):
        for h in range(k + 1):
            passed = verify(s, k, h).passed
            assert passed == (rep.axis_max <= k and expect <= k - h), (k, h)
            # a re-targeted report re-derives its verdict
            assert replace(rep, k=k, required_reserve=h).passed == passed, (k, h)
    if expect == 0:
        assert rep.worst_line is None
        return
    d, c = rep.worst_line
    assert count_on_line(s, d, c) == rep.generic_max
    # the witness is the first line to reach the maximum in (modulus, vx, vy)
    # order, and on its direction the one of smallest intercept
    order = sorted(
        ((vx, vy) for vx in range(1, n) for vy in range(1 - n, n)
         if vy != 0 and gcd(vx, abs(vy)) == 1),
        key=lambda v: (max(v[0], abs(v[1])), v[0], v[1]),
    )
    for vx, vy in order:
        per_line = Counter(vy * x - vx * y for x, y in pts)
        top = max(per_line.values())
        if top == expect:
            assert (d.vx, d.vy, c) == (vx, vy, min(i for i, m in per_line.items() if m == top))
            break
    else:
        pytest.fail("no direction reaches generic_max")


def test_verify_stops_at_the_line_length_cap():
    n, k = 40, 6
    pts = {(x, (x + s) % n + 1) for x in range(1, n + 1) for s in range(k)}
    s = PointSet.from_points(n, pts)
    assert s.is_regular(k)
    rep = _verify_both(s, k, 0)
    assert rep.generic_max == _expected_generic_max(n, pts)
    stop = next(M for M in range(1, n) if (n - 1) // M + 1 <= rep.generic_max)
    assert rep.directions_swept == sum(len(_directions_of_modulus(M)) for M in range(1, stop))
    assert rep.directions_swept < sum(len(_directions_of_modulus(M)) for M in range(1, n))


def test_verify_sparse_corner_of_a_huge_grid_stays_small():
    # intercepts are offset by the set's bounding box, so six points in
    # the corner of a 10^6 grid get histograms of their own size
    import tracemalloc

    n = 10**6
    pts = [(i, i) for i in range(1, 7)]
    s = PointSet.from_points(n, pts)
    tracemalloc.start()
    try:
        rep = verify(s, 6, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.generic_max == brute_generic_max(pts)[0] == 6
    assert rep.directions_swept == 2
    assert rep.worst_line == (Direction(1, 1), 0)
    assert peak < 1 << 20


@pytest.mark.parametrize("n", [10**6, MAX_SIDE])
def test_verify_sparse_far_corner_of_a_huge_grid_stays_small(n):
    # rows and columns are counted over the bounding box too, so six
    # points next to (n, n) need no histogram of side n
    import tracemalloc

    pts = [(n - 6 + i, n - 6 + i) for i in range(1, 7)]
    s = PointSet.from_points(n, pts)
    tracemalloc.start()
    try:
        rep = verify(s, 6, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.generic_max == brute_generic_max(pts)[0] == 6
    assert rep.axis_max == 1 and rep.directions_swept == 2
    assert rep.worst_line == (Direction(1, 1), 0)
    assert peak < 1 << 20


@st.composite
def _edge_sets(draw):
    """(n, points): an empty set, one point, one row or one column, a
    set on the last row or column, or a set confined to a band of
    columns and rows that misses leading or trailing ones."""
    n = draw(st.integers(1, 12))
    coord = st.integers(1, n)
    kind = draw(st.sampled_from(["empty", "one", "row", "column", "far edge", "band"]))
    if kind == "empty":
        return n, set()
    if kind == "one":
        return n, {(draw(coord), draw(coord))}
    if kind in ("row", "column"):
        at, run = draw(coord), draw(st.sets(coord, min_size=1))
        return n, {(at, v) if kind == "column" else (v, at) for v in run}
    if kind == "far edge":
        pts = draw(st.sets(st.tuples(coord, coord), max_size=n * n))
        edge = draw(st.sets(coord, min_size=1))
        return n, pts | ({(n, v) for v in edge} if draw(st.booleans()) else {(v, n) for v in edge})
    lo_x, lo_y = draw(coord), draw(coord)
    xs, ys = st.integers(lo_x, draw(st.integers(lo_x, n))), st.integers(lo_y, draw(st.integers(lo_y, n)))
    return n, draw(st.sets(st.tuples(xs, ys), min_size=1, max_size=n * n))


@given(case=_edge_sets())
@settings(max_examples=300, deadline=None)
def test_verify_column_runs_match_direct_counts_on_edge_sets(case):
    n, pts = case
    s = PointSet.from_points(n, pts)
    rep = _verify_both(s, n, 0)
    assert rep.generic_max == _expected_generic_max(n, pts)
    cols, rows = Counter(x for x, _ in pts), Counter(y for _, y in pts)
    assert rep.axis_max == max([*cols.values(), *rows.values(), 0])
    if rep.worst_line is not None:
        assert count_on_line(s, *rep.worst_line) == rep.generic_max


@pytest.mark.parametrize(
    "pts, swept",
    [
        # two occupied rows: no generic line holds 3 of the points, so
        # the sweep ends after the 2 directions of modulus 1
        ([(1, 1), (2, 2), (1000, 1)], 2),
        # 4 rows and 4 columns, but 3 occupied columns share a residue
        # mod M only for M = 2, 3; every other class is skipped
        ([(1, 1), (2, 2), (4, 3), (1000, 5)], 2 + 4 + 8),
    ],
)
def test_verify_sparse_set_without_a_rich_short_line_stops_early(pts, swept):
    rep = _verify_both(PointSet.from_points(1000, pts), 3, 0)
    assert rep.generic_max == brute_generic_max(pts)[0] == 2
    assert rep.worst_line == (Direction(1, 1), 0)
    assert rep.directions_swept == swept


def _sparse_or_clustered(rng, n, most=80):
    """Up to 80 points of [1,n]^2: uniform, in one small box, on a few
    rows and columns, or in a few tight clusters."""
    size = rng.randint(1, most)
    kind = rng.randrange(4)
    if kind == 0:
        draw = lambda: (rng.randint(1, n), rng.randint(1, n))
    elif kind == 1:
        w = rng.randint(1, max(1, n // 4))
        x0, y0 = rng.randint(1, n - w + 1), rng.randint(1, n - w + 1)
        draw = lambda: (rng.randint(x0, x0 + w - 1), rng.randint(y0, y0 + w - 1))
    elif kind == 2:
        xs = [rng.randint(1, n) for _ in range(rng.randint(1, 4))]
        ys = [rng.randint(1, n) for _ in range(rng.randint(1, 4))]
        draw = lambda: rng.choice(
            [(rng.choice(xs), rng.randint(1, n)), (rng.randint(1, n), rng.choice(ys))]
        )
    else:
        centres = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(1, 3))]
        step = rng.choice([1, 2, 3])

        def draw():
            cx, cy = rng.choice(centres)
            x, y = cx + step * rng.randint(-3, 3), cy + step * rng.randint(-3, 3)
            return min(max(x, 1), n), min(max(y, 1), n)

    return {draw() for _ in range(size)}


def _assert_matches_line_sizes(n, pts, sweep=_verify_both):
    s = PointSet.from_points(n, pts)
    rep = sweep(s, n, 0)
    expect = _expected_generic_max(n, pts)
    assert rep.generic_max == expect, (n, sorted(pts))
    cols, rows = Counter(x for x, _ in pts), Counter(y for _, y in pts)
    assert rep.axis_max == max([*cols.values(), *rows.values(), 0])
    if expect < 2:
        return
    # the witness is the first line of expect points in (modulus, vx,
    # vy, intercept) order
    d, c = rep.worst_line
    assert first_fullest_line(pts) == (expect, (d.vx, d.vy, c)), (n, sorted(pts))


def test_verify_matches_oracles_on_sparse_and_clustered_sets():
    rng = random.Random(2024)
    for trial in range(400):
        n = rng.randint(2, 119)
        _assert_matches_line_sizes(n, _sparse_or_clustered(rng, n))


def test_verify_matches_oracles_across_offset_widths(monkeypatch):
    # intercept offsets are held in int16 while 2*M*span < 2^15 and are
    # widened when the walk reaches a class past that; below n = 120 no
    # walk gets there, so these sets span hundreds of rows.  Sets stay
    # at 20 points: a sparse set with no 3 in line walks to modulus
    # ~span/2, which takes seconds per set at 40 points.  The mask sweep
    # has no offsets, so the rule is patched to the intercept sweep: a
    # clustered set's masks can fit in its 18 bytes a point.
    widths = []

    def spy(bound):
        widths.append(narrowest_int(bound))
        return widths[-1]

    narrowest_int = secants._narrowest_int
    monkeypatch.setattr(secants, "_narrowest_int", spy)
    monkeypatch.setattr(secants, "_masks_fit", lambda points, nx, ny: False)
    rng = random.Random(2026)
    widened = 0
    for trial in range(40):
        n = rng.randint(200, 1000)
        widths.clear()
        _assert_matches_line_sizes(n, _sparse_or_clustered(rng, n, 20), verify)
        widened += widths[-1] != np.int16
    assert widened >= 5


@st.composite
def _kernel_cases(draw):
    """(n, points) for the two sweeps of `verify`: a few random points in
    an nx x ny box, nx and ny drawn apart, anywhere in [1,n]^2 up to its
    far corner, with one or two parallel copies of a planted line, so
    lines tie.  The line's direction has modulus up to 3, so vy < 0 and
    |vy| > vx both occur; one case in four plants a line of 256 to 270
    points, more than a uint8 step sum holds."""
    vx = draw(st.integers(1, 3))
    vy = draw(st.sampled_from([v for v in range(-3, 4) if v and gcd(vx, abs(v)) == 1]))
    long_line = draw(st.integers(0, 3)) == 0
    length = draw(st.integers(256, 270) if long_line else st.integers(1, 8))
    span_x, span_y = (length - 1) * vx, (length - 1) * abs(vy)
    nx, ny = span_x + draw(st.integers(1, 12)), span_y + draw(st.integers(1, 12))
    n = draw(st.sampled_from([max(nx, ny), max(nx, ny) + 7, 10**6]))
    x0 = draw(st.sampled_from([1, n - nx + 1, (n - nx) // 2 + 1]))
    y0 = draw(st.sampled_from([1, n - ny + 1, (n - ny) // 3 + 1]))
    cell = st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1))
    pts = set(draw(st.lists(cell, max_size=30)))
    for _ in range(draw(st.integers(1, 2))):
        # a start from which the whole line stays in the box
        a = draw(st.integers(0, nx - 1 - span_x))
        b = draw(st.integers(0, ny - 1 - span_y)) + (span_y if vy < 0 else 0)
        pts |= {(a + t * vx, b + t * vy) for t in range(length)}
    return n, {(x0 + x, y0 + y) for x, y in pts}


@given(case=_kernel_cases())
@settings(max_examples=120, deadline=None)
def test_mask_and_intercept_sweeps_agree_with_the_oracles(case):
    # the sweeps agree field for field, directions_swept too, and with
    # the oracles on the maximum, its witness and the axis counts
    n, pts = case
    _assert_matches_line_sizes(n, pts)


@st.composite
def _tied_sets(draw):
    """A set of [1,n]^2, n <= 40, whose fullest lines tie within and
    across directions: a permutation matrix, a full box, or the union of
    whole lines of one direction."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["permutation", "box", "lines"]))
    if kind == "permutation":
        return n, set(zip(range(1, n + 1), draw(st.permutations(range(1, n + 1)))))
    if kind == "box":
        w, h = draw(st.integers(1, n)), draw(st.integers(1, n))
        x0, y0 = draw(st.integers(1, n - w + 1)), draw(st.integers(1, n - h + 1))
        return n, {(x, y) for x in range(x0, x0 + w) for y in range(y0, y0 + h)}
    vx = draw(st.integers(1, 4))
    vy = draw(st.sampled_from([v for v in range(-4, 5) if v and gcd(vx, abs(v)) == 1]))
    grid = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    cs = draw(st.lists(st.sampled_from(sorted({vy * x - vx * y for x, y in grid})), min_size=1, max_size=6))
    return n, {(x, y) for x, y in grid if vy * x - vx * y in cs}


@given(case=_tied_sets())
@settings(max_examples=120, deadline=None)
def test_witness_under_ties_is_the_first_fullest_line_on_both_sweeps(case):
    # the mask sweep maps a direction's lines to an intercept only when
    # it beats the best so far; the report must not depend on it: both
    # sweeps agree on generic_max, worst_line and directions_swept, and
    # the witness is the oracle's first fullest line, at its smallest
    # intercept (a lone point is a line of size 1 once n >= 2)
    n, pts = case
    points = PointSet.from_points(n, pts)
    rep = _verify_both(points, n)
    witness = rep.worst_line and (rep.worst_line[0].vx, rep.worst_line[0].vy, rep.worst_line[1])
    assert (rep.generic_max, witness) == generic_max_by_cap(points, 0)


def test_cap_oracle_agrees_with_the_pair_oracle():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(2, 40)
        pts = _sparse_or_clustered(rng, n, 60)
        size, line = generic_max_by_cap(PointSet.from_points(n, pts), 1)
        if size >= 2:
            assert (size, line) == first_fullest_line(pts)
        else:
            assert first_fullest_line(pts) == (0, None)


def _assert_verify_matches_the_cap_oracle(points, k, reserve):
    # the oracle scans every direction whose lines can hold generic_max
    # points; no line of another can, so its maximum and witness are exact
    rep = _verify_both(points, k, reserve)
    d, c = rep.worst_line
    assert generic_max_by_cap(points, rep.generic_max - 1) == (rep.generic_max, (d.vx, d.vy, c))
    return rep


def test_verify_matches_the_cap_oracle_on_the_403_233_output():
    rep = _assert_verify_matches_the_cap_oracle(pipeline(403, 233, seed=11).output, 233, 0)
    assert rep.passed


@pytest.mark.parametrize("t, reserve", enumerate([2, -2, -5, -4]))
def test_verify_matches_the_cap_oracle_on_the_400_120_search_retries(t, reserve):
    cells = _sample_retry(feasibility_matrix_4x4(400, 120), 7, t)[0]
    rep = _assert_verify_matches_the_cap_oracle(PointSet.from_mask(cells), 120, 15)
    assert rep.achieved_reserve == reserve


@lru_cache(maxsize=2)
def _certified(m, k, seed):
    """The certified k-regular set that pipeline(m, k, seed) builds on
    [1,m]^2 within 4 retries, and its report at reserve 0."""
    cert = pipeline(m, k, seed=seed, max_retries=4)
    return cert.output, cert.report


def _switch_onto(cells, d, c, load, rng):
    """Raise the line vy*x - vx*y = c of the n x n bool mask `cells`
    ([x-1, y-1] for (x, y)) to `load` points by 2x2 switches (Kannan,
    Tetali & Vempala 1999): each sets an empty cell (x1, y1) of the line
    and a cell (x2, y2), and clears (x1, y2) and (x2, y1), so every row
    and column keeps its count.  A generic line meets row x1 and column
    y1 once, so the cleared cells are off it, and (x2, y2) is drawn off
    it: each switch adds exactly one point to the line."""
    xs, ys = np.array(line_points(len(cells), d, c)).T - 1
    while cells[xs, ys].sum() < load:
        # an empty cell of the line whose row and column hold points
        free = ~cells[xs, ys] & cells[xs].any(axis=1) & cells[:, ys].any(axis=0)
        i = rng.choice(np.flatnonzero(free))
        x1, y1 = xs[i], ys[i]
        for y2 in rng.permutation(np.flatnonzero(cells[x1])):
            x2s = np.flatnonzero(cells[:, y1] & ~cells[:, y2])
            x2s = x2s[d.vy * (x2s + 1) - d.vx * (y2 + 1) != c]
            if len(x2s):
                break
        else:
            raise AssertionError(f"no switch sets {(x1 + 1, y1 + 1)}")
        x2 = rng.choice(x2s)
        cells[x1, y1] = cells[x2, y2] = True
        cells[x1, y2] = cells[x2, y1] = False


@st.composite
def _plants(draw):
    """(m, k, seed, n, o, h, (vx, vy), c, switch seed): the certified set
    `_certified(m, k, seed)`, m <= 400, shifted by (o, o) into [1,n]^2,
    a reserve h it meets, and a line of a direction whose modulus M has
    cap (m-1)//M + 1 above k - h, holding more than k - h cells of the
    set's box."""
    m = draw(st.integers(24, 400))
    k = draw(st.integers(m // 4, m - 2))
    seed = draw(st.integers(0, 2**16))
    try:
        report = _certified(m, k, seed)[1]
    except (ConstructionError, RetriesExhausted):
        # no route takes (m, k), or 4 retries do not certify it
        reject()
    n = m + draw(st.sampled_from([0, 9]))
    o = draw(st.integers(0, n - m))
    h = draw(st.integers(0, report.achieved_reserve))
    M = draw(st.sampled_from([M for M in range(1, m) if (m - 1) // M + 1 > k - h]))
    d = draw(st.sampled_from(_directions_of_modulus(M)))
    x, y = np.indices((m, m)) + o + 1
    sizes = Counter((d.vy * x - d.vx * y).ravel().tolist())
    c = draw(st.sampled_from(sorted(c for c, size in sizes.items() if size > k - h)))
    return m, k, seed, n, o, h, (d.vx, d.vy), c, draw(st.integers(0, 2**16))


# a longest line of modulus 2, (m-1)//2 + 1 cells, filled by switches to
# one above a set whose fullest lines, all of modulus 1, hold (m-1)//2:
# the walk must not stop before modulus 2 (whole grids), nor skip it on
# its residue cap (shifted sets, which miss rows and columns)
@example(case=(200, 101, 1, 200, 0, 2, (1, -2), -402, 0))
@example(case=(200, 101, 1, 209, 4, 2, (1, -2), -414, 0))
@example(case=(1600, 920, 0, 1600, 0, 121, (1, -2), -3202, 0))
@example(case=(1591, 908, 0, 1600, 4, 113, (1, -2), -3195, 1))
@given(case=_plants())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_verify_catches_a_line_planted_one_above_the_reserve(case):
    # switches that keep every row and column raise one line of a
    # certified set to exactly k - h + 1 points: the exact sweep must
    # fail the set at reserve h, with the cap oracle's maximum and
    # witness, and the witness must recount
    m, k, seed, n, o, h, (vx, vy), c, switch_seed = case
    cells = np.zeros((n, n), bool)
    cells[o : o + m, o : o + m] = _certified(m, k, seed)[0].mask()
    rows, cols = cells.sum(axis=1), cells.sum(axis=0)
    d = Direction(vx, vy)
    _switch_onto(cells, d, c, k - h + 1, np.random.default_rng(switch_seed))
    assert np.array_equal(cells.sum(axis=1), rows) and np.array_equal(cells.sum(axis=0), cols)
    out = PointSet.from_mask(cells)
    assert count_on_line(out, d, c) == k - h + 1
    rep = _verify_both(out, k, h)
    assert not rep.passed and rep.axis_max == k
    wd, wc = rep.worst_line
    assert generic_max_by_cap(out, k - h) == (rep.generic_max, (wd.vx, wd.vy, wc))
    assert count_on_line(out, wd, wc) == rep.generic_max


@pytest.mark.parametrize("height", [253, 254, 255, 256, 257, 258, 509, 510, 511])
def test_line_counts_match_a_direct_count_on_either_side_of_255(height):
    # lines of at most 255 points take one uint8 reduce, longer ones
    # are summed in chunks; an all-ones square box of side 253-258
    # holds lines of those lengths for p = 1, and of 255 and 256 for
    # p = 2 at heights 509-511
    mask, cells = secants._padded_mask(height, height)
    cells[...] = 1
    stride = 2 * height
    for p in (1, 2, 3):
        a, u, t = np.ogrid[:p, :stride, : height // p + 1]
        for q in range(-p, p + 1):
            # the line through row a, column u - shift, stepping (p, q)
            col = u - (height // p) * max(q, 0) + t * q
            direct = ((a + t * p < height) & (col >= 0) & (col < height)).sum(axis=2).ravel()
            got = secants._line_counts(mask, stride, height, p, q)
            assert np.array_equal(got, direct), (p, q)


@st.composite
def _cell_masks(draw):
    """An n x n bool mask, n in [1, 60], from empty to full: over the
    whole grid, only in a box at one of its corners, or with rows and
    columns left empty, so that the residue cap runs."""
    n = draw(st.integers(1, 60))
    fill = draw(st.sampled_from([0.0, 0.03, 0.2, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.random((n, n)) < fill
    kind = draw(st.sampled_from(["whole", "corner", "gaps"]))
    if kind == "corner":
        a, b = draw(st.integers(1, n)), draw(st.integers(1, n))
        xs = slice(0, a) if draw(st.booleans()) else slice(n - a, n)
        ys = slice(0, b) if draw(st.booleans()) else slice(n - b, n)
        box = np.zeros_like(cells)
        box[xs, ys] = True
        cells &= box
    elif kind == "gaps":
        cells[rng.random(n) < 0.3] = False
        cells[:, rng.random(n) < 0.3] = False
    return cells


@given(cells=_cell_masks(), reserve=st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_cells_feeder_matches_verify_of_its_keys(cells, reserve):
    # both sweeps: the feeder's report equals that of the set's keys
    # field for field; the mask sweep holds the cells it was given, the
    # intercept sweep the keys it read, and neither writes to the cells
    n = len(cells)
    points, before = PointSet.from_mask(cells), cells.copy()
    for mask in (False, True):
        slot = [cells]
        with mock.patch.object(secants, "_masks_fit", lambda points, nx, ny: mask):
            report, held = secants._verify_cells(slot, n, reserve)
            assert report == verify(points, n, reserve)
        assert slot == [] and (held is cells if mask else held == points)
    assert np.array_equal(cells, before)


def test_verify_scatter_peak_at_3203_is_the_masks_and_one_chunk():
    # the keys are scattered a bounded chunk of columns at a time: the
    # peak is the padded mask, its transpose (the walk reaches modulus
    # 2) and at most one chunk's int64 index, where one index for every
    # point had peaked at 68,465,765 bytes with the same report
    out = pipeline(3203, 1866, seed=11).output
    mask = 3203 + 3203 * (3203 + 3203)
    tracemalloc.start()
    try:
        report = verify(out, 1866, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.axis_max == 1866 and report.generic_max == 1581
    assert report.worst_line == (Direction(1, -1), -3283) and report.directions_swept == 6
    assert peak <= 2 * mask + 8 * secants._SCATTER_CHUNK


def test_verify_peak_memory_on_a_search_retry_is_below_the_intercept_sweep():
    # retry 0 of biuniform_construct(400, 120, seed=7) walks to modulus
    # 3, so the mask sweep builds the transposed mask too: both masks
    # are 640,000 bytes, and the peak measured 722,040 bytes.  The
    # intercept sweep peaked at 922,496 bytes on it.
    s = PointSet.from_mask(_sample_retry(feasibility_matrix_4x4(400, 120), 7, 0)[0])
    assert secants._masks_fit(len(s), 400, 400)
    tracemalloc.start()
    try:
        rep = verify(s, 120, 15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep == _verify_both(s, 120, 15)
    assert rep.directions_swept == 14 and rep.generic_max == 118
    assert peak <= 922_496


def _sweeps_run(call):
    """The names of the sweeps, `_intercept_lines` or `_mask_lines`,
    that call() builds, in order."""
    run = []

    def spy(name):
        real = getattr(secants, name)

        def spied(*args):
            run.append(name)
            return real(*args)

        return mock.patch.object(secants, name, spied)

    with spy("_intercept_lines"), spy("_mask_lines"):
        call()
    return run


@pytest.mark.parametrize(
    "n, nx, ny, points, sweep",
    [
        (400, 400, 400, 48_000, "_mask_lines"),  # a search-400-120 retry
        (403, 403, 403, 93_899, "_mask_lines"),  # construct-403-233's output
        (200, 200, 200, 12_000, "_mask_lines"),  # audit-200-60's file
        (1000, 1000, 20, 20, "_intercept_lines"),
        (10**4, 10**4, 10**4, 2, "_intercept_lines"),
        (15, 15, 15, 50, "_mask_lines"),  # (nx + ny)^2 = 900 = 18 * 50
        (15, 15, 15, 49, "_intercept_lines"),
    ],
)
def test_sweep_is_the_mask_sweep_exactly_when_its_masks_fit(n, nx, ny, points, sweep):
    # the rule reads the memory bound alone: the mask sweep runs when
    # its two masks, (nx + ny)^2 bytes, fit in 18 bytes a point; both
    # feeders follow it on `points` random cells of the nx x ny box at
    # (1, 1), two of them its corners
    assert secants._masks_fit(points, nx, ny) == (sweep == "_mask_lines")
    rng = np.random.default_rng(points)
    box = np.concatenate(([0, nx * ny - 1], rng.choice(nx * ny - 2, points - 2, replace=False) + 1))
    x, y = np.divmod(np.sort(box), ny)
    s = PointSet(n, x * n + y)
    assert _sweeps_run(lambda: verify(s, n)) == [sweep]
    if n <= 1000:
        assert _sweeps_run(lambda: secants._verify_cells([s.mask()], n, 0)) == [sweep]


@pytest.mark.parametrize(
    "bound, dtype",
    [(0, np.int16), (2**15 - 1, np.int16), (2**15, np.int32),
     (2**31 - 1, np.int32), (2**31, np.int64), (2**62, np.int64)],
)
def test_offset_width_is_the_narrowest_that_holds_the_bound(bound, dtype):
    assert _narrowest_int(bound) == dtype


@pytest.mark.parametrize("k, reserve", [(True, 0), (3.0, 0), (0.5, 0), (3, True), (3, 0.5), (3, 1.0)])
def test_verify_rejects_k_or_reserve_that_is_not_an_integer(k, reserve):
    s = PointSet.from_points(3, [(1, 1), (2, 2), (3, 3)])
    with pytest.raises(ValueError):
        verify(s, k, reserve)


def test_verify_takes_numpy_integers_and_rejects_a_negative_reserve():
    s = PointSet.from_points(3, [(1, 1), (2, 2), (3, 3)])
    rep = verify(s, np.int64(3), np.int32(1))
    assert (rep.k, rep.required_reserve, rep.passed) == (3, 1, False)
    assert verify(s, np.int16(3)).passed
    with pytest.raises(ValueError):
        verify(s, 3, -1)


def test_verify_peak_memory_per_point_on_the_shipped_set():
    # the keys are decoded by column runs into one int64 temporary,
    # freed once the narrow offsets exist; the peak, 18.4 bytes a point,
    # is five int16 arrays and the int64 copy `bincount` makes of one
    import tracemalloc

    s = pipeline(403, 233, seed=11).output
    tracemalloc.start()
    try:
        rep = verify(s, 233)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak <= 19 * len(s), peak / len(s)


@given(
    n=st.integers(2, 15),
    vx=st.integers(1, 5),
    vy=st.integers(-5, 5).filter(lambda v: v != 0),
    data=st.data(),
)
@settings(max_examples=120)
def test_intercept_identity_iff_collinear(n, vx, vy, data):
    if gcd(vx, abs(vy)) != 1:
        return
    d = Direction(vx, vy)
    p = data.draw(st.tuples(st.integers(1, n), st.integers(1, n)))
    q = data.draw(st.tuples(st.integers(1, n), st.integers(1, n)))
    if p == q:
        return
    same_bucket = d.intercept(*p) == d.intercept(*q)
    dx, dy = q[0] - p[0], q[1] - p[1]
    collinear_along_d = dx * vy == dy * vx
    assert same_bucket == collinear_along_d


def test_census_small_values():
    assert census(3, 3).count == 2
    assert census(4, 4).count == 2


def test_census_rejects_small_j():
    with pytest.raises(ValueError):
        census(5, 1)


def test_census_matches_pair_oracle_small():
    for n in range(2, 13):
        sizes = grid_line_sizes(n)
        for j in range(2, n + 1):
            assert census(n, j).count == sum(1 for c in sizes.values() if c >= j), (n, j)


def test_census_monotone_in_j():
    for n in (7, 16, 33):
        prev = None
        for j in range(2, n + 2):
            c = census(n, j).count
            if prev is not None:
                assert c <= prev
            prev = c


def test_census_n100_j20_matches_walk_oracle():
    # Independent oracle: bucket all grid points of each candidate
    # direction by intercept and count buckets of size >= 20.
    import numpy as np

    n, j = 100, 20
    xs, ys = np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1), indexing="ij")
    xs = xs.ravel().astype(np.int64)
    ys = ys.ravel().astype(np.int64)
    cutoff = (n - 1) // (j - 1)
    total = 0
    for a in range(1, cutoff + 1):
        for b in range(1, cutoff + 1):
            if gcd(a, b) != 1:
                continue
            for vy in (b, -b):
                c = vy * xs - a * ys
                counts = np.bincount(c - c.min())
                total += int((counts >= j).sum())
    assert census(n, j).count == total


def test_richness_bound_values():
    assert richness_bound(10, 10, 1) == 10
    assert richness_bound(100, 20, 1) == 12500


def test_richness_bound_rejects_nonpositive_kappa():
    with pytest.raises(ValueError):
        richness_bound(10, 0)


@pytest.mark.parametrize(
    "n, kappa, L", [(0, 2, 1), (-5, 2, 1), (10, 2, 0), (10, 2, -1), (10, 2, nan), (10, nan, 1)]
)
def test_richness_bound_rejects_empty_grid_and_nonpositive_parameters(n, kappa, L):
    with pytest.raises(ValueError):
        richness_bound(n, kappa, L)


@given(n=st.integers(1, 11), j=st.integers(2, 13))
@settings(max_examples=60, deadline=None)
def test_census_matches_both_oracles_on_small_grids(n, j):
    assert census(n, j).count == census_by_coprime_pairs(n, j) == census_by_pairs(n, j)


@given(n=st.integers(1, 400), j=st.integers(2, 40))
@settings(max_examples=60, deadline=None)
def test_census_matches_the_coprime_pair_loop(n, j):
    assert census(n, j).count == census_by_coprime_pairs(n, j)


def test_mobius_sieve_matches_trial_division():
    def mu(d):
        m, p = 1, 2
        while p * p <= d:
            if d % p == 0:
                d //= p
                if d % p == 0:
                    return 0
                m = -m
            p += 1
        return -m if d > 1 else m

    for N in (0, 1, 2, 3, 4, 24, 25, 26, 1000):
        assert secants._mobius(N).tolist() == [0] + [mu(d) for d in range(1, N + 1)], N


def test_census_sieve_peak_is_ten_bytes_a_divisor():
    # mu (int8), rad and d (int32 up to N = 999,999) and their bool
    # comparison: ten bytes per d, where int64 rad and d peaked at
    # 18,000,776 bytes with the same count
    tracemalloc.start()
    try:
        row = census(10**6, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row.count == 227_972_663_236_440_098_907_106
    assert peak <= 10 * 10**6 + 2**16


def test_census_below_richness_bound():
    assert census(100, 21).count <= richness_bound(100, 20, 1)


def test_census_ratio_to_reference_is_moderate():
    n, j = 100, 20
    ref = (6 / pi**2) * n**4 / j**3
    ratio = census(n, j).count / ref
    assert 0.3 < ratio < 2.0
