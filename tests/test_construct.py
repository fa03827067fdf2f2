"""Tests for the constructions, the reserve spend and the pipeline."""

import hashlib
import os
import random
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nkline import bifactor, construct, secants
from nkline.bifactor import iter_matchings, sample_r_factor
from nkline.construct import (
    ConstructionError,
    RetriesExhausted,
    _sample_retry,
    biuniform_construct,
    explicit_certificate,
    explicit_construct,
    pipeline,
    spend,
)
from nkline.grid import FeasibilityMatrix, PointSet, feasibility_matrix_4x4
from nkline.pointfile import serialize
from nkline.secants import VerificationReport, count_on_line, verify

from oracles import brute_generic_max, generic_line_sizes


def test_explicit_16_11_matches_reference_scenario():
    s = explicit_construct(16, 11)
    assert len(s) == 176
    assert s.is_regular(11)
    rep = verify(s, 11, 0)
    assert rep.passed
    brute, _ = brute_generic_max(s.sorted_xy())
    assert brute <= 11


# sha256 of serialize(explicit_construct(300, 240), 240), measured before
# the filler's circulant became the sampler's bool mask
EXPLICIT_300_240_SHA256 = "123663836c18f6e6143705ac8ba9549015ce408e8078ce0761af3e3bb2a83b76"


def test_explicit_golden_bytes():
    text = serialize(explicit_construct(300, 240), 240)
    assert hashlib.sha256(text.encode()).hexdigest() == EXPLICIT_300_240_SHA256


def test_explicit_k_equals_n_gives_full_grid():
    s = explicit_construct(3, 3)
    assert len(s) == 9


def test_explicit_12_8():
    s = explicit_construct(12, 8)
    assert len(s) == 96
    assert s.is_regular(8)
    assert verify(s, 8, 0).passed


def test_explicit_rejects_small_k():
    with pytest.raises(ConstructionError):
        explicit_construct(12, 7)  # 3*7 < 24
    with pytest.raises(ConstructionError):
        explicit_construct(10, 11)


def test_explicit_small_sweep_verified():
    for n in range(12, 25):
        for k in range(-(-2 * n // 3), n + 1):
            s = explicit_construct(n, k)
            assert len(s) == k * n, (n, k)
            assert s.is_regular(k), (n, k)
            assert verify(s, k, 0).passed, (n, k)


def _zero_matrix(n, m):
    return FeasibilityMatrix(m, n // m, [[0] * m for _ in range(m)])


def test_biuniform_row_col_counts_always_exact():
    mat = feasibility_matrix_4x4(40, 30)
    cert = biuniform_construct(40, 30, mat, seed=2, max_retries=1, target_reserve=0)
    assert cert.output.is_regular(30)
    assert len(cert.output) == 30 * 40


def test_biuniform_zero_matrix_trivially_certifies():
    cert = biuniform_construct(4, 0, _zero_matrix(4, 4), seed=0, target_reserve=0)
    assert cert.certified
    assert len(cert.output) == 0


def test_biuniform_rejects_mismatched_matrix():
    for n, k, matrix, match in [
        (36, 30, feasibility_matrix_4x4(40, 30), "grow -4 "),
        (40, 31, feasibility_matrix_4x4(40, 30), "drop -1 "),
        (6, 1, FeasibilityMatrix(2, 3, [[1, 0], [0, 2]]), "not all equal"),
        (6, 1, FeasibilityMatrix(2, 3, [[1, 1], [0, 2]]), "not all equal"),
        (48, 5, feasibility_matrix_4x4(40, 10), "drop 5 and grow 8 of its 10 "),
    ]:
        with pytest.raises(ConstructionError, match=match):
            biuniform_construct(n, k, matrix, seed=0)


@pytest.mark.parametrize("n, k, k_round, n_round", [(2, 1, 10, 0), (11, 5, 10, 8)])
def test_pipeline_error_names_both_routes_limits(n, k, k_round, n_round):
    # neither route takes these sizes: 3k < 2n rules out the explicit
    # construction, and the randomized one would round to a k above 5/6
    # of its n (none at all for n < 4)
    message = (
        f"no route builds n={n}, k={k}: the explicit construction needs 3k >= 2n, and the "
        f"randomized one 10*ceil(k/10) = {k_round} <= 5/6 of 4*floor(n/4) = {n_round}"
    )
    with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
        pipeline(n, k, seed=0)


def test_biuniform_rejects_zero_retries():
    with pytest.raises(ConstructionError, match="max_retries must be >= 1"):
        biuniform_construct(40, 30, feasibility_matrix_4x4(40, 30), seed=0, max_retries=0)


def test_biuniform_spends_each_retry_with_its_own_factors():
    # the retry at (400, 240) is spent to (403, 233), then swept once
    matrix = feasibility_matrix_4x4(400, 240)
    cert = biuniform_construct(403, 233, matrix, seed=11, max_retries=1)
    sample, sigma, tau = _sample_retry(matrix, 11, 0)
    factors = construct._retry_factors(construct._block_schedule(matrix, 10), sigma, tau)
    want = PointSet.from_mask(construct._spend(sample, 240, 7, 3, factors))
    assert cert.certified and cert.output == want
    assert cert.report == verify(want, 233, 0)
    assert cert.lineage[1] == ("spend", {"from": (400, 240), "to": (403, 233)})


def test_biuniform_draws_the_relabelings_once_per_retry(monkeypatch):
    calls = []

    def counting(q, rs, seeds):
        calls.append(len(seeds))
        return bifactor.relabeled_circulants(q, rs, seeds)

    monkeypatch.setattr(construct, "relabeled_circulants", counting)
    cert = biuniform_construct(403, 113, feasibility_matrix_4x4(400, 120), seed=7, max_retries=3)
    assert not cert.certified
    assert calls == [16] * 3


def test_biuniform_deterministic_for_fixed_seed():
    mat = feasibility_matrix_4x4(40, 30)
    a = biuniform_construct(40, 30, mat, seed=5, max_retries=3, target_reserve=0)
    b = biuniform_construct(40, 30, mat, seed=5, max_retries=3, target_reserve=0)
    assert a.output == b.output
    assert a.per_retry_reserves == b.per_retry_reserves
    c = biuniform_construct(40, 30, mat, seed=6, max_retries=3, target_reserve=0)
    assert c.output != a.output


# sha256 of the search benchmark's output: biuniform_construct(400, 120)
# at seed 7, target reserve 15, cut to 4 retries; a change that moves it
# moves the bytes of every bi-uniform construction.  Re-pinned because
# the retry sampler is now a relabeled circulant.
SEARCH_400_120_SHA256 = "cfd88685fa40b2e706bf2256d3789411d7b9f880df69d505d64f194ba736fbe8"


def test_biuniform_search_400_120_golden_bytes():
    cert = biuniform_construct(
        400, 120, feasibility_matrix_4x4(400, 120), seed=7, max_retries=4, target_reserve=15
    )
    text = serialize(cert.output, 120, seed=7)
    assert hashlib.sha256(text.encode()).hexdigest() == SEARCH_400_120_SHA256
    assert cert.per_retry_reserves == (2, -2, -5, -4)


def test_unspent_route_reads_back_its_best_retry():
    # retry 0 holds the best reserve of the four; its cells are kept
    # through the three that follow, and its keys are read once, at the
    # end: the report is the sweep of exactly the set returned
    matrix = feasibility_matrix_4x4(400, 120)
    cert = biuniform_construct(400, 120, matrix, seed=7, max_retries=4, target_reserve=15)
    assert not cert.certified and cert.per_retry_reserves == (2, -2, -5, -4)
    assert cert.output == PointSet.from_mask(_sample_retry(matrix, 7, 0)[0])
    assert cert.report == verify(cert.output, 120, 15)


def test_explicit_certificate_reports_on_its_output():
    for n, k in [(16, 11), (68, 46), (300, 240)]:
        cert = explicit_certificate(n, k)
        assert cert.output == explicit_construct(n, k)
        assert cert.report == verify(cert.output, k, 0)


@pytest.mark.parametrize("k", [30, 28])
def test_a_retry_on_the_intercept_sweep_holds_its_keys_alone(monkeypatch, k):
    # every n x n mask a retry made, its own and the spent one, is freed
    # before the intercept sweep starts: a sparse retry holds the keys
    # that sweep reads, not its cells beside them
    made = []
    for name in ("_sample_retry", "_spend"):
        real = getattr(construct, name)

        def recording(*args, real=real):
            out = real(*args)
            made.append(weakref.ref(out[0] if isinstance(out, tuple) else out))
            return out

        monkeypatch.setattr(construct, name, recording)
    swept = []
    intercept_lines = secants._intercept_lines

    def checking(*args):
        swept.append([r() is None for r in made])
        return intercept_lines(*args)

    monkeypatch.setattr(secants, "_masks_fit", lambda points, nx, ny: False)
    monkeypatch.setattr(secants, "_intercept_lines", checking)
    cert = biuniform_construct(40, k, _M40, seed=3, max_retries=3, target_reserve=30)
    assert cert.retries_used == len(swept) == 3
    assert len(made) == 3 * (1 + (k < 30)) and all(all(s) for s in swept)
    assert cert.report == verify(cert.output, k, 30)


def _flip_cell(blocks):
    blocks[1, 0, 0] = ~blocks[1, 0, 0]


def _move_cell_within_its_row(blocks):
    row = blocks[1, 0]
    on, off = np.argmax(row), np.argmin(row)
    row[on], row[off] = False, True


def test_sample_retry_places_each_block_at_its_grid_offset():
    matrix = feasibility_matrix_4x4(40, 30)
    m, q = matrix.m, matrix.block_side
    grid = _sample_retry(matrix, 3, 2)[0]
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            r = matrix.entries[i - 1][j - 1]
            block = bifactor.relabeled_circulants(q, [r], [bifactor.derive_seed(3, 2, i, j)])[0][0]
            assert np.array_equal(grid[(i - 1) * q : i * q, (j - 1) * q : j * q], block), (i, j)


def test_sample_retry_above_255_matches_the_permuted_circulant():
    # q and r above 255: int16 relabelings
    q, r = 300, 280
    matrix = FeasibilityMatrix(2, q, [[r, q - r], [q - r, r]])
    grid = _sample_retry(matrix, 9, 1)[0]
    for i in range(1, 3):
        for j in range(1, 3):
            rng = np.random.default_rng(bifactor.derive_seed(9, 1, i, j))
            sigma, tau = rng.permutation(q), rng.permutation(q)
            want = bifactor._circulant(q, matrix.entries[i - 1][j - 1])[sigma][:, tau]
            assert np.array_equal(grid[(i - 1) * q : i * q, (j - 1) * q : j * q], want), (i, j)


# the message of `construct._certify`, which rejects an output that is
# not k * n points with every row and column at most k
NOT_A_FACTOR = "construction output is not a"


@pytest.mark.parametrize("corrupt", [_flip_cell, _move_cell_within_its_row])
def test_sample_retry_audit_catches_a_corrupted_block(monkeypatch, corrupt):
    # a flipped cell leaves the retry off 30 * 40 points, and a cell moved
    # within its row puts a column at 31: the retry's `_certify` rejects both
    matrix = feasibility_matrix_4x4(40, 30)
    assert biuniform_construct(40, 30, matrix, seed=3, max_retries=1).output.is_regular(30)

    def corrupted(q, rs, seeds):
        blocks, sigma, tau = bifactor.relabeled_circulants(q, rs, seeds)
        corrupt(blocks)
        return blocks, sigma, tau

    monkeypatch.setattr(construct, "relabeled_circulants", corrupted)
    with pytest.raises(RuntimeError, match=f"{NOT_A_FACTOR} 30-factor on \\[1,40\\]"):
        biuniform_construct(40, 30, matrix, seed=3, max_retries=1)


def test_spend_nothing_returns_the_set_unswept(monkeypatch, extractions):
    # nothing spent: the same set and its own report come back unswept,
    # and no 1-factor is extracted
    s = explicit_construct(12, 8)
    report = verify(s, 8, 0)
    sweeps = []
    monkeypatch.setattr(construct, "_verify_cells", lambda *args: sweeps.append(args))
    out, rep = spend(s, report, 8, 12)
    assert out is s and rep == report and rep.passed
    assert sweeps == [] and extractions == []


def _first_factors(points, count):
    """The first `count` 1-factors of a regular factor, stacked as
    `_spend` takes them: one (count, n) array."""
    factors = islice(iter_matchings(points), count)
    return np.array(list(factors), dtype=np.int64).reshape(count, points.n)


def test_spend_kernel_drops_a_factor_of_the_full_grid():
    n = 6
    full = PointSet.from_points(n, [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)])
    out = PointSet.from_mask(construct._spend(full.mask(), n, 1, 0, _first_factors(full, 1)))
    assert len(out) == n * (n - 1)
    assert out.is_regular(n - 1)


def test_adjustments_leave_their_input_unchanged(desk_scale_run):
    cert, _ = desk_scale_run
    s = cert.output
    before = s.keys.copy()
    shrunk, report = spend(s, cert.report, 233, 400)
    assert np.array_equal(s.keys, before)
    assert len(s) == 240 * 400 and s.is_regular(240)
    assert report == verify(shrunk, 233, 0)
    before = shrunk.keys.copy()
    spend(shrunk, report, 233, 403)
    assert np.array_equal(shrunk.keys, before)
    assert shrunk.n == 400 and shrunk.is_regular(233)


_S12 = explicit_construct(12, 8)
_R12 = verify(_S12, 8, 0)  # an explicit set has reserve 0


@pytest.mark.parametrize(
    "points, report, k, n, match",
    [
        pytest.param(_S12, _R12, 9, 12, "raise k", id="raise-k"),
        pytest.param(_S12, _R12, 8, 11, "shrink n", id="shrink-n"),
        # reserve 3 covers neither drop 2 plus grow 1 nor grow 2
        pytest.param(_S12, replace(_R12, generic_max=5), 6, 13, "reserve 4", id="short-reserve"),
        pytest.param(_S12, replace(_R12, generic_max=5), 8, 14, "reserve 4", id="short-grow"),
        pytest.param(_S12, replace(_R12, axis_max=9, generic_max=0), 7, 12, "reserve 1", id="axis-max-above-k"),
        pytest.param(
            PointSet.from_points(4, [(1, 1), (1, 2), (2, 1)]),
            VerificationReport(2, 0, 2, 0, None, 0),
            1,
            4,
            "not a 2-factor",
            id="not-regular",
        ),
    ],
)
def test_spend_rejects(points, report, k, n, match):
    # each check fails before a 1-factor is extracted (the not-regular
    # set has none to extract)
    with pytest.raises(ConstructionError, match=match):
        spend(points, report, k, n)


@pytest.fixture
def extractions(monkeypatch):
    """List with one entry m per perfect matching found on an m x m
    grid: a 1-factor of an m x m factor (`iter_matchings`), or a block
    permutation of an m x m block matrix (`_retry_factors`)."""
    calls = []
    matcher = bifactor._hopcroft_karp

    def counting(m, adj):
        calls.append(m)
        return matcher(m, adj)

    monkeypatch.setattr(bifactor, "_hopcroft_karp", counting)
    monkeypatch.setattr(construct, "_hopcroft_karp", counting)
    return calls


def test_spend_drop_never_increases_any_line_count(extractions):
    # sampled factors carry no verified reserve, so the kernel is driven directly
    rng = random.Random(3)
    for trial in range(4):
        m = rng.choice([8, 10, 12])
        r = rng.randint(3, m - 1)
        s = sample_r_factor(m, r, seed=40 + trial)
        before = generic_line_sizes(s.sorted_xy())
        extractions.clear()
        out = PointSet.from_mask(construct._spend(s.mask(), r, 2, 0, _first_factors(s, 2)))
        assert len(extractions) == 2
        after = generic_line_sizes(out.sorted_xy())
        for key, cnt in after.items():
            assert cnt <= before.get(key, cnt)


def test_spend_nothing_retargets_a_reserve_15_report(desk_scale_run, monkeypatch):
    # a report certified at reserve 15 comes back re-targeted to reserve 0
    cert, _ = desk_scale_run
    sweeps = []
    monkeypatch.setattr(construct, "_verify_cells", lambda *args: sweeps.append(args))
    out, rep = spend(cert.output, cert.report, 240, 400)
    assert out is cert.output and sweeps == []
    assert rep == replace(cert.report, required_reserve=0) and rep.passed


def test_adjustment_chain_at_scale(desk_scale_run, extractions):
    cert, _ = desk_scale_run
    assert cert.certified, cert.report.summary()
    shrunk, rep1 = spend(cert.output, cert.report, 233, 400)
    assert len(extractions) == 7
    assert rep1.passed
    assert rep1.achieved_reserve >= 8
    assert shrunk.is_regular(233)
    extractions.clear()
    grown, rep2 = spend(shrunk, rep1, 233, 403)
    assert len(extractions) == 3
    assert rep2.passed
    assert grown.n == 403
    assert len(grown) == 233 * 403
    assert grown.is_regular(233)


def test_spend_grow_by_two_keeps_rows_and_columns_exact(desk_scale_run):
    # grow by 2, spending 4 of the certified reserve 15
    cert, _ = desk_scale_run
    out, rep = spend(cert.output, cert.report, 240, 402)
    assert rep.passed
    assert out.n == 402
    assert out.is_regular(240)
    assert len(out) == 240 * 402


def _permuted_circulant(m, r, seed):
    """The relabeled circulant r-factor on [1,m]^2 that
    `relabeled_circulants` samples from `seed`, as a PointSet."""
    mask = bifactor.relabeled_circulants(m, [r], [seed])[0][0]
    return PointSet(m, np.flatnonzero(mask))


@st.composite
def _spends(draw):
    m = draw(st.integers(1, 16))
    r = draw(st.integers(0, m))
    drop = draw(st.integers(0, r))
    return m, r, drop, draw(st.integers(0, r - drop))


@given(sizes=_spends(), circulant=st.booleans(), seed=st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_spend_in_one_step_equals_drop_then_grow(sizes, circulant, seed):
    m, r, drop, grow = sizes
    f = _permuted_circulant(m, r, seed) if circulant else sample_r_factor(m, r, seed=seed)
    once = PointSet.from_mask(construct._spend(f.mask(), r, drop, grow, _first_factors(f, drop + grow)))
    dropped = PointSet.from_mask(construct._spend(f.mask(), r, drop, 0, _first_factors(f, drop)))
    grown = construct._spend(dropped.mask(), r - drop, 0, grow, _first_factors(dropped, grow))
    grown = PointSet.from_mask(grown)
    assert once == grown
    assert once.n == m + grow and once.is_regular(r - drop)


def test_pipeline_spends_without_a_matching_on_the_set(monkeypatch, extractions):
    # the spend takes the retry's own shift classes: no row bitsets of
    # the 400 x 400 set are built and Hopcroft-Karp runs only on the
    # 4 x 4 block matrix, once per factor spent (7 dropped, 3 grown)
    builds = []
    row_bitsets = bifactor._row_bitsets

    def counting_builds(points):
        builds.append(points.n)
        return row_bitsets(points)

    monkeypatch.setattr(bifactor, "_row_bitsets", counting_builds)
    cert = pipeline(403, 233, seed=11)
    assert cert.certified
    assert builds == [] and extractions == [4] * 10


@st.composite
def _regular_block_matrices(draw):
    """(matrix, k): an m x m block matrix with every line sum k, the sum
    of k permutation matrices, on blocks of side q >= k."""
    m, q = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    k = draw(st.integers(0, q))
    entries = np.zeros((m, m), dtype=np.int64)
    for _ in range(k):
        entries[np.arange(m), draw(st.permutations(range(m)))] += 1
    return FeasibilityMatrix(m, q, entries.tolist()), k


@given(
    mk=_regular_block_matrices(), seed=st.integers(0, 2**32), t=st.integers(0, 3), data=st.data()
)
@settings(max_examples=80, deadline=None)
def test_retry_factors_split_the_retry_into_disjoint_perfect_matchings(mk, seed, t, data):
    matrix, k = mk
    n = matrix.n
    cells, sigma, tau = _sample_retry(matrix, seed, t)
    points = PointSet.from_mask(cells)
    factors = construct._retry_factors(construct._block_schedule(matrix, k), sigma, tau)
    assert factors.shape == (k, n)
    for f in factors:
        assert sorted(f.tolist()) == list(range(1, n + 1))
    # k * n distinct cells, exactly the retry's
    keys = (np.arange(n) * n + factors - 1).reshape(-1)
    assert np.array_equal(np.sort(keys), points.keys)
    # a prefix does not depend on how many are asked for, and a rerun
    # with the same seed gives the same factors
    j = data.draw(st.integers(0, k))
    schedule = construct._block_schedule(matrix, j)
    assert np.array_equal(construct._retry_factors(schedule, sigma, tau), factors[:j])
    _, sigma, tau = _sample_retry(matrix, seed, t)
    schedule = construct._block_schedule(matrix, k)
    assert np.array_equal(construct._retry_factors(schedule, sigma, tau), factors)


def test_retry_factors_reject_unequal_line_sums():
    matrix = FeasibilityMatrix(2, 3, [[1, 0], [0, 2]])
    _, sigma, tau = _sample_retry(matrix, 0, 0)
    factors = construct._retry_factors(construct._block_schedule(matrix, 1), sigma, tau)
    assert sorted(factors[0].tolist()) == list(range(1, 7))
    with pytest.raises(ConstructionError, match="unequal line sums"):
        construct._block_schedule(matrix, 2)


def _swap_into_a_cell_outside_the_set(factors):
    # swapping two rows' columns keeps a permutation
    f = factors[1]
    inside = set(_S12.sorted_xy())
    a, b = next(
        (a, b) for a in range(12) for b in range(12) if (a + 1, int(f[b])) not in inside
    )
    f[[a, b]] = f[[b, a]]
    return factors


def _repeat_a_factor(factors):
    factors[2] = factors[0]
    return factors


def _break_a_permutation(factors):
    factors[1, 0] = factors[1, 1]
    return factors


def _shorten_a_factor(factors):
    return factors[:, :-1]


def _give_too_few(factors):
    return factors[:2]


def _spend_and_certify(cells, k, drop, grow, factors):
    out = construct._spend(cells, k, drop, grow, factors)
    construct._certify([out], k - drop, 0)
    return PointSet.from_mask(out)


@pytest.mark.parametrize(
    "mutate, outcome",
    [
        pytest.param(
            _swap_into_a_cell_outside_the_set, NOT_A_FACTOR,
            id="_swap_into_a_cell_outside_the_set-outside the set",
        ),
        pytest.param(_repeat_a_factor, NOT_A_FACTOR, id="_repeat_a_factor-share a cell"),
        pytest.param(_break_a_permutation, NOT_A_FACTOR, id="_break_a_permutation-not a permutation"),
        # the shape check guards `_spend`'s indexing
        pytest.param(
            _shorten_a_factor, r"3 1-factors on 12 rows needed, got \(3, 11\)",
            id="_shorten_a_factor-not a permutation",
        ),
        pytest.param(
            _give_too_few, r"3 1-factors on 12 rows needed, got \(2, 12\)",
            id="_give_too_few-3 1-factors needed, 2 given",
        ),
    ],
)
def test_spend_audit_rejects_bad_factors(mutate, outcome):
    # a fault in the factors of a spend (drop 2, grow 1) is rejected by
    # `_spend`'s shape check, or its output by `_certify`
    factors = _first_factors(_S12, 3)
    assert _spend_and_certify(_S12.mask(), 8, 2, 1, factors.copy()).is_regular(6)
    with pytest.raises((ConstructionError, RuntimeError), match=outcome):
        _spend_and_certify(_S12.mask(), 8, 2, 1, mutate(factors))


def _last_row_repeats_a_column(f, cells):
    f[-1, -1] = f[-1, 0]


def _last_row_takes_an_empty_cell(f, cells):
    # swap two rows' columns in the last factor onto a cell off the set
    a = next(a for a in range(1, f.shape[1]) if not cells[a, f[-1, 0] - 1])
    f[-1, [0, a]] = f[-1, [a, 0]]


def _last_factor_repeats_the_first(f, cells):
    f[-1] = f[0]


@pytest.mark.parametrize(
    "mutate, rejected",
    [
        # row 400 of the last factor, a grow factor, donates no cell to
        # the new row and column (only rows 1..233 do): the same output
        pytest.param(_last_row_repeats_a_column, False, id="permutation"),
        pytest.param(_last_row_takes_an_empty_cell, True, id="inside"),
        pytest.param(_last_factor_repeats_the_first, True, id="disjoint"),
    ],
)
def test_spend_audit_checks_every_factor_of_a_retry(monkeypatch, mutate, rejected):
    # a fault in the last of the retry's 10 factors either makes its
    # `_certify` raise or leaves the retry's output and report unchanged
    matrix = feasibility_matrix_4x4(400, 240)
    clean = biuniform_construct(403, 233, matrix, seed=11, max_retries=1)
    cells = _sample_retry(matrix, 11, 0)[0]
    retry_factors = construct._retry_factors

    def faulty(*args):
        factors = retry_factors(*args)
        mutate(factors, cells)
        return factors

    monkeypatch.setattr(construct, "_retry_factors", faulty)
    if rejected:
        with pytest.raises(RuntimeError, match=f"{NOT_A_FACTOR} 233-factor on \\[1,403\\]"):
            biuniform_construct(403, 233, matrix, seed=11, max_retries=1)
    else:
        cert = biuniform_construct(403, 233, matrix, seed=11, max_retries=1)
        assert serialize(cert.output, 233) == serialize(clean.output, 233)
        assert cert.report == clean.report and cert.certified


def test_a_block_cell_a_dropped_factor_erases_leaves_the_output_unchanged(monkeypatch):
    # row 1 loses its cell in the first factor, which the spend drops
    # anyway: the same bytes come out
    matrix = _M40
    clean = biuniform_construct(40, 28, matrix, seed=3, max_retries=1)
    _, sigma, tau = _sample_retry(matrix, 3, 0)
    y = int(construct._retry_factors(construct._block_schedule(matrix, 1), sigma, tau)[0, 0]) - 1
    # the cell lies in block (1, y // q + 1) of the block-row major array
    q = matrix.block_side

    def erased(q_, rs, seeds):
        blocks, sigma, tau = bifactor.relabeled_circulants(q_, rs, seeds)
        assert blocks[y // q, 0, y % q]
        blocks[y // q, 0, y % q] = False
        return blocks, sigma, tau

    monkeypatch.setattr(construct, "relabeled_circulants", erased)
    cert = biuniform_construct(40, 28, matrix, seed=3, max_retries=1)
    assert serialize(cert.output, 28) == serialize(clean.output, 28)
    assert cert.report == clean.report
    # the same cell lost with nothing to spend is rejected
    with pytest.raises(RuntimeError, match=NOT_A_FACTOR):
        biuniform_construct(40, 30, matrix, seed=3, max_retries=1)


def _flip_one(data, array):
    """Flip one cell of a bool array, or move one entry of a 1-factor
    array to another column in [1, n], at an index `data` draws."""
    index = tuple(data.draw(st.integers(0, d - 1)) for d in array.shape)
    if array.dtype == bool:
        array[index] = ~array[index]
    else:
        array[index] = data.draw(st.integers(1, array.shape[-1]))


@given(
    stage=st.sampled_from(["blocks", "factors", "matchings", "mask"]),
    drop=st.integers(0, 3),
    grow=st.integers(0, 2),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_one_fault_at_any_stage_raises_or_leaves_a_regular_set(stage, drop, grow, seed, data):
    # one cell or factor entry changed at one stage of a route: the blocks
    # of a retry, its shift-class factors, the `iter_matchings` factors
    # of `spend`, or the mask a spend or a retry is read off.  The route
    # raises in `_certify`, or its output is a (30 - drop)-factor.
    k = 30 - drop
    if stage == "matchings":
        # spend trusts a report; this one claims the reserve the spend needs
        points = biuniform_construct(40, 30, _M40, seed=seed, max_retries=1).output
        report = replace(verify(points, 30), generic_max=0)
        run = lambda: spend(points, report, k, 40 + grow)[0]  # noqa: E731
    else:
        run = lambda: biuniform_construct(40 + grow, k, _M40, seed=seed, max_retries=1).output  # noqa: E731

    def faulty(fn):
        def wrapped(*args):
            out = fn(*args)
            _flip_one(data, out)
            return out

        return wrapped

    def faulty_blocks(q, rs, seeds):
        blocks, sigma, tau = bifactor.relabeled_circulants(q, rs, seeds)
        _flip_one(data, blocks)
        return blocks, sigma, tau

    def faulty_matchings(factor):
        factors = np.array(list(islice(iter_matchings(factor), drop + grow)))
        _flip_one(data, factors)
        return iter(factors.tolist())

    class FaultyMask(PointSet):
        @classmethod
        def from_mask(cls, mask):
            _flip_one(data, mask)
            return PointSet.from_mask(mask)

    # the keys of a set this small are read off its cells before its
    # sweep, by `secants._verify_cells`
    patches = {
        "blocks": (construct, "relabeled_circulants", faulty_blocks),
        "factors": (construct, "_retry_factors", faulty(construct._retry_factors)),
        "matchings": (construct, "iter_matchings", faulty_matchings),
        "mask": (secants, "PointSet", FaultyMask),
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(*patches[stage])
        try:
            out = run()
        except RuntimeError as e:
            assert NOT_A_FACTOR in str(e)
        else:
            assert out.n == 40 + grow and out.is_regular(k)


def test_explicit_route_raises_on_a_failed_certificate_under_python_o():
    # the check must not be an assert, which python -O strips
    script = (
        "from dataclasses import replace\n"
        "from nkline import construct\n"
        "assert False, 'not running under -O'\n"
        "real = construct._verify_cells\n"
        "def failing(slot, k, h):\n"
        "    report, held = real(slot, k, h)\n"
        "    return replace(report, generic_max=k + 1), held\n"
        "construct._verify_cells = failing\n"
        "try:\n"
        "    construct.pipeline(16, 11, seed=0)\n"
        "except RuntimeError as exc:\n"
        "    print('raised', exc)\n"
    )
    src = str(Path(construct.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("raised explicit construction not certified: FAIL k=11")
    assert "generic_max=12" in run.stdout


def test_every_route_returns_a_report_made_by_certify(monkeypatch, desk_scale_run):
    made = []
    certify = construct._certify

    def counting(slot, k, reserve):
        report, held = certify(slot, k, reserve)
        made.append(report)
        return report, held

    monkeypatch.setattr(construct, "_certify", counting)
    cert = explicit_certificate(16, 11)
    assert len(made) == 1 and made[0] is cert.report
    made.clear()
    cert = pipeline(16, 11, seed=0)
    assert len(made) == 1 and made[0] is cert.report
    # every retry, the best-effort one too, is certified once
    made.clear()
    cert = biuniform_construct(403, 113, feasibility_matrix_4x4(400, 120), seed=7, max_retries=2)
    assert not cert.certified and cert.retries_used == len(made) == 2
    assert any(r is cert.report for r in made)
    assert tuple(r.achieved_reserve for r in made) == cert.per_retry_reserves
    made.clear()
    cert = pipeline(403, 233, seed=11)
    assert cert.certified and len(made) == cert.retries_used and made[-1] is cert.report
    made.clear()
    desk, _ = desk_scale_run
    out, report = spend(desk.output, desk.report, 233, 403)
    assert len(made) == 1 and made[0] is report
    # with nothing spent, spend hands back its input's report re-targeted
    made.clear()
    assert spend(out, report, 233, 403)[1] == report and made == []


def test_pipeline_explicit_route_68_46():
    cert = pipeline(68, 46, seed=0)
    assert cert.certified
    assert [s for s, _ in cert.lineage] == ["explicit"]
    assert len(cert.output) == 3128
    assert cert.report.passed


def test_pipeline_explicit_route_fig_scenario():
    cert = pipeline(16, 11, seed=0)
    assert cert.certified
    assert [s for s, _ in cert.lineage] == ["explicit"]
    assert len(cert.output) == 176


def test_pipeline_replay_is_bit_identical():
    a = pipeline(68, 46, seed=123)
    b = pipeline(68, 46, seed=123)
    assert a.output == b.output
    assert a.output.sorted_xy() == b.output.sorted_xy()


def test_pipeline_randomized_route_end_to_end():
    cert = pipeline(403, 233, seed=11, max_retries=16)
    assert cert.certified
    assert [s for s, _ in cert.lineage] == ["biuniform", "spend"]
    assert cert.lineage[-1][1] == {"from": (400, 240), "to": (403, 233)}
    assert cert.output.n == 403
    assert len(cert.output) == 233 * 403
    assert cert.output.is_regular(233)


@pytest.mark.parametrize(
    "n, k, steps",
    [
        (403, 233, ["biuniform", "spend"]),
        (400, 233, ["biuniform", "spend"]),
        (400, 230, ["biuniform"]),
        (403, 120, ["biuniform", "spend"]),
    ],
    ids=["403-233", "400-233", "400-230", "403-120"],
)
def test_pipeline_verifies_once_per_retry(monkeypatch, n, k, steps):
    # each retry is spent to (n, k) first, so the one sweep per retry is
    # at (n, k, 0), and the last one's report is the certificate
    calls = []

    verify_cells = construct._verify_cells

    def counting(slot, k, reserve):
        calls.append((len(slot[0]), k, reserve))
        return verify_cells(slot, k, reserve)

    monkeypatch.setattr(construct, "_verify_cells", counting)
    cert = pipeline(n, k, seed=11)
    assert cert.certified
    assert calls == [(n, k, 0)] * cert.retries_used
    assert [s for s, _ in cert.lineage] == steps
    assert cert.output.n == n and cert.output.is_regular(k)
    assert cert.report == verify(cert.output, k, 0)


def test_biuniform_walks_the_block_schedule_once_per_call(extractions):
    # every retry on one matrix spends the same block steps: two retries
    # of 7 dropped and 3 grown factors walk the 4 x 4 block matrix 10
    # times, not 20
    with pytest.raises(RetriesExhausted) as exc:
        pipeline(403, 113, seed=7, max_retries=2)
    assert exc.value.certificate.per_retry_reserves == (-5, -9)
    assert extractions == [4] * 10


def test_pipeline_retries_exhausted_carries_best_effort():
    # no retry at (400, 120) spent to (403, 113) is certified within 2;
    # the failure must surface the best spent set, an exact 113-factor
    # on the 403-grid with its own reserve-0 report
    with pytest.raises(RetriesExhausted) as exc:
        pipeline(403, 113, seed=7, max_retries=2)
    cert = exc.value.certificate
    assert not cert.certified
    assert cert.output.n == 403 and cert.output.is_regular(113)
    assert cert.per_retry_reserves == (-5, -9)
    assert cert.report == verify(cert.output, 113, 0)


@pytest.mark.parametrize("k", [110, 120])
def test_pipeline_certifies_where_the_spend_reserve_ran_out(k):
    # a retry had to verify at reserve (k' - k) + 6 before it was spent;
    # these k exhausted 64 retries that way
    cert = pipeline(403, k, seed=11)
    assert cert.certified
    assert cert.output.n == 403 and cert.output.is_regular(k)
    assert cert.report == verify(cert.output, k, 0)
    d, c = cert.report.worst_line
    assert count_on_line(cert.output, d, c) == cert.report.generic_max <= k


@pytest.mark.parametrize("k", [130, 150, 170])
def test_pipeline_certifies_below_the_fixed_reserve_range(k):
    # the spent set is verified at reserve 0; a retry at the fixed
    # target 15 exhausted its retries at these k
    cert = pipeline(403, k, seed=11)
    assert cert.certified
    assert cert.lineage[0][1]["k"] == k and cert.report.passed
    assert cert.output.n == 403 and cert.output.is_regular(k)


def test_pipeline_rejects_out_of_range_k():
    with pytest.raises(ConstructionError):
        pipeline(10, 11, seed=0)
    with pytest.raises(ConstructionError):
        pipeline(10, 0, seed=0)


_M40 = feasibility_matrix_4x4(40, 30)
_E30 = explicit_certificate(30, 24)
_R30 = verify(_E30.output, 24, 2)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: pipeline(403, 233.0, seed=1), "k must be an integer, got 233.0"),
        (lambda: pipeline(403.0, 233, seed=1), "n must be an integer, got 403.0"),
        (lambda: pipeline(403, True, seed=1), "k must be an integer, got True"),
        (lambda: pipeline(403, 233, seed=1, max_retries=2.0), "max_retries must be an integer"),
        (lambda: biuniform_construct(40, 30.0, _M40, seed=1), "k must be an integer, got 30.0"),
        (lambda: biuniform_construct(40, 30, _M40, seed=1, max_retries=1.5), "max_retries must"),
        (lambda: explicit_construct(10, 7.0), "k must be an integer, got 7.0"),
        (lambda: explicit_construct(np.bool_(True), 1), "n must be an integer"),
        (lambda: pipeline(403, 233, seed=1.5), "seed must be an integer, got 1.5"),
        (lambda: pipeline(16, 11, seed=1.5), "seed must be an integer, got 1.5"),
        (lambda: pipeline(16, 11, seed="7"), "seed must be an integer, got '7'"),
        (lambda: pipeline(16, 11, seed=True), "seed must be an integer, got True"),
        (lambda: biuniform_construct(40, 30, _M40, seed=2.5), "seed must be an integer"),
        (lambda: biuniform_construct(40, 30, _M40, seed=1, target_reserve=-1), "target_reserve must be >= 0"),
        (lambda: biuniform_construct(40, 30, _M40, seed=1, target_reserve=1.5), "target_reserve must be an"),
        (lambda: explicit_certificate(16, 11, seed=1.5), "seed must be an integer, got 1.5"),
        (lambda: spend(_E30.output, _R30, 24, 30.0), "n must be an integer, got 30.0"),
        (lambda: spend(_E30.output, _R30, 23.0, 30), "k must be an integer, got 23.0"),
    ],
    ids=[
        "pipeline-k-float", "pipeline-n-float", "pipeline-k-bool", "pipeline-retries-float",
        "biuniform-k-float", "biuniform-retries-float", "explicit-k-float", "explicit-n-bool",
        "pipeline-seed-float", "pipeline-explicit-seed-float", "pipeline-seed-str",
        "pipeline-seed-bool", "biuniform-seed-float", "biuniform-reserve-negative",
        "biuniform-reserve-float", "explicit-certificate-seed-float", "spend-n-float",
        "spend-k-float",
    ],
)
def test_constructions_reject_non_integer_sizes_before_sampling(monkeypatch, call, match):
    # each is rejected before a retry is sampled, not later in islice or slicing
    monkeypatch.setattr(construct, "_sample_retry", None)
    with pytest.raises(ValueError, match=match):
        call()


def test_constructions_take_numpy_integer_sizes():
    n, k = np.int64(40), np.int32(30)
    assert explicit_construct(np.int64(12), np.int16(8)) == explicit_construct(12, 8)
    cert = biuniform_construct(
        n, k, _M40, seed=np.int64(5), max_retries=np.int64(3), target_reserve=np.int8(0)
    )
    assert cert.output == biuniform_construct(40, 30, _M40, seed=5, max_retries=3).output
    assert pipeline(np.int64(16), np.int64(11), seed=np.int32(0)).certified
    assert explicit_certificate(12, 8, seed=np.uint8(3)).seed == 3


def test_pipeline_too_small_for_randomized_route():
    with pytest.raises(ConstructionError):
        pipeline(10, 5, seed=0)  # rounds to n=8, k=10 > 5n/6
