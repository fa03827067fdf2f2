"""Tests for the sweep verifier and the rich-secant census."""

import random
from math import pi

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nkline import secants
from nkline.grid import Direction, PointSet
from nkline.secants import (
    census,
    count_on_line,
    primitive_directions,
    richness_bound,
    verify,
)

from oracles import brute_generic_max, census_by_pairs, grid_line_sizes


def test_primitive_directions_n5_t3():
    dirs = {(d.vx, d.vy) for d in primitive_directions(5, 3)}
    assert dirs == {(1, 1), (1, -1), (1, 2), (1, -2), (2, 1), (2, -1)}


def test_primitive_directions_n3_t3():
    dirs = {(d.vx, d.vy) for d in primitive_directions(3, 3)}
    assert dirs == {(1, 1), (1, -1)}


def test_primitive_directions_n2_t3_empty():
    assert primitive_directions(2, 3) == []


def test_primitive_directions_rejects_small_threshold():
    with pytest.raises(ValueError):
        primitive_directions(5, 1)


def test_primitive_directions_no_duplicates_and_primitive():
    dirs = primitive_directions(12, 2)
    assert len(dirs) == len(set(dirs))
    from math import gcd

    for d in dirs:
        assert gcd(d.vx, abs(d.vy)) == 1
        assert d.modulus <= 11


def test_verify_full_grid():
    n = 4
    s = PointSet.from_points(n, [(x, y) for x in range(1, 5) for y in range(1, 5)])
    rep = verify(s, 4, 0, mode="exhaustive")
    assert rep.axis_max == 4
    assert rep.generic_max == 4
    assert rep.achieved_reserve == 0
    assert rep.passed


def test_verify_three_collinear_fails():
    s = PointSet.from_points(3, [(1, 1), (2, 2), (3, 3)])
    rep = verify(s, 2, 0, mode="exhaustive")
    assert not rep.passed
    assert rep.generic_max == 3
    d, c = rep.worst_line
    assert (d.vx, d.vy, c) == (1, 1, 0)


def test_verify_empty_set():
    s = PointSet.from_points(5, [])
    rep = verify(s, 0, 0, mode="exhaustive")
    assert rep.passed
    assert rep.axis_max == 0 and rep.generic_max == 0


def test_verify_worst_line_recount_matches():
    rng = random.Random(7)
    pts = {(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(40)}
    s = PointSet.from_points(12, pts)
    rep = verify(s, 3, 0, mode="exhaustive")
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
        rep = verify(s, n, 0, mode="exhaustive")
        brute, _ = brute_generic_max(pts)
        assert rep.generic_max == max(brute, 1 if pts and n >= 2 else 0)


def test_threshold_and_exhaustive_agree_on_pass_fail():
    rng = random.Random(5)
    for trial in range(6):
        n = rng.randint(4, 20)
        pts = {(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(2, 2 * n))}
        s = PointSet.from_points(n, pts)
        for k in range(0, n + 1):
            for h in range(0, k + 1):
                fast = verify(s, k, h, mode="threshold")
                full = verify(s, k, h, mode="exhaustive")
                assert fast.passed == full.passed, (n, sorted(pts), k, h)


def test_threshold_sweeps_the_short_directions_without_the_cache(monkeypatch):
    monkeypatch.setattr(secants, "_dir_cache", {})
    rng = random.Random(9)
    n = 40
    pts = {(rng.randint(1, n), rng.randint(1, n)) for _ in range(300)}
    s = PointSet.from_points(n, pts)
    fast = {(k, h): verify(s, k, h, mode="threshold") for k, h in [(12, 0), (12, 9), (7, 2), (3, 1)]}
    assert secants._dir_cache == {}
    full = verify(s, 12, 0, mode="exhaustive")
    assert list(secants._dir_cache) == [n]
    for (k, h), rep in fast.items():
        cutoff = (n - 1) // (k - h)
        swept = [d for d in full.per_direction_max if d.modulus <= cutoff]
        assert rep.per_direction_max == {d: full.per_direction_max[d] for d in swept}
        assert list(rep.per_direction_max) == swept
        # strict-> witness: the first direction in sweep order reaching the max
        worst = next(d for d in swept if rep.per_direction_max[d] == rep.generic_max)
        assert rep.worst_line[0] == worst


@given(
    n=st.integers(2, 15),
    vx=st.integers(1, 5),
    vy=st.integers(-5, 5).filter(lambda v: v != 0),
    data=st.data(),
)
@settings(max_examples=120)
def test_intercept_identity_iff_collinear(n, vx, vy, data):
    from math import gcd

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
    from math import gcd

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


def test_census_below_richness_bound():
    assert census(100, 21).count <= richness_bound(100, 20, 1)


def test_census_ratio_to_reference_is_moderate():
    n, j = 100, 20
    ref = (6 / pi**2) * n**4 / j**3
    ratio = census(n, j).count / ref
    assert 0.3 < ratio < 2.0
