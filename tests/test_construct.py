"""Tests for the constructions, the reserve spend and the pipeline."""

import hashlib
import random
from dataclasses import replace
from itertools import islice
from math import inf, nan

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nkline import bifactor, construct
from nkline.bifactor import BipartiteFactor, iter_matchings, sample_r_factor
from nkline.construct import (
    ConstructionError,
    RetriesExhausted,
    _sample_retry,
    biuniform_construct,
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


def test_biuniform_spends_each_retry_with_its_own_factors():
    # the retry at (400, 240) is spent to (403, 233), then swept once
    matrix = feasibility_matrix_4x4(400, 240)
    cert = biuniform_construct(403, 233, matrix, seed=11, max_retries=1)
    sample, factors = _sample_retry(matrix, 11, 0)
    want = construct._spend(sample, 240, 7, 3, factors)
    assert cert.certified and cert.output == want
    assert cert.report == verify(want, 233, 0)
    assert cert.lineage[1] == ("spend", {"from": (400, 240), "to": (403, 233)})


def test_biuniform_draws_the_relabelings_once_per_retry(monkeypatch):
    calls = []
    relabelings = bifactor._relabelings

    def counting(q, seeds):
        calls.append(len(seeds))
        return relabelings(q, seeds)

    monkeypatch.setattr(bifactor, "_relabelings", counting)
    monkeypatch.setattr(construct, "_relabelings", counting)
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
            block = bifactor.relabeled_circulants(q, [r], [bifactor.derive_seed(3, 2, i, j)])[0]
            assert np.array_equal(grid[(i - 1) * q : i * q, (j - 1) * q : j * q], block), (i, j)


def test_sample_retry_above_255_matches_the_permuted_circulant():
    # q and r above 255: int16 relabelings, uint16 degree sums
    q, r = 300, 280
    matrix = FeasibilityMatrix(2, q, [[r, q - r], [q - r, r]])
    grid = _sample_retry(matrix, 9, 1)[0]
    for i in range(1, 3):
        for j in range(1, 3):
            rng = np.random.default_rng(bifactor.derive_seed(9, 1, i, j))
            sigma, tau = rng.permutation(q), rng.permutation(q)
            want = bifactor._circulant(q, matrix.entries[i - 1][j - 1])[sigma][:, tau]
            assert np.array_equal(grid[(i - 1) * q : i * q, (j - 1) * q : j * q], want), (i, j)


@pytest.mark.parametrize("corrupt", [_flip_cell, _move_cell_within_its_row])
def test_sample_retry_audit_catches_a_corrupted_block(monkeypatch, corrupt):
    matrix = feasibility_matrix_4x4(40, 30)
    assert PointSet.from_mask(_sample_retry(matrix, 3, 0)[0]).is_regular(30)

    def corrupted(q, rs, sigma, tau):
        blocks = bifactor._permuted_circulants(q, rs, sigma, tau)
        corrupt(blocks)
        return blocks

    monkeypatch.setattr(construct, "_permuted_circulants", corrupted)
    with pytest.raises(RuntimeError, match="degree audit"):
        _sample_retry(matrix, 3, 0)


def test_spend_nothing_returns_the_set_unswept(monkeypatch):
    # nothing spent: the same set and its own report come back unswept
    s = explicit_construct(12, 8)
    report = verify(s, 8, 0)
    sweeps = []
    monkeypatch.setattr(construct, "verify", lambda *args: sweeps.append(args))
    out, rep = spend(s, report, 8, 12, iter_matchings(BipartiteFactor(8, s)))
    assert out is s and rep == report and rep.passed
    assert sweeps == []


def test_spend_kernel_drops_a_factor_of_the_full_grid():
    n = 6
    full = PointSet.from_points(n, [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)])
    out = construct._spend(full.mask(), n, 1, 0, iter_matchings(BipartiteFactor(n, full)))
    assert len(out) == n * (n - 1)
    assert out.is_regular(n - 1)


def test_adjustments_leave_their_input_unchanged(desk_scale_run):
    cert, _ = desk_scale_run
    s = cert.output
    before = s.keys.copy()
    shrunk, report = spend(s, cert.report, 233, 400, iter_matchings(BipartiteFactor(240, s)))
    assert np.array_equal(s.keys, before)
    assert len(s) == 240 * 400 and s.is_regular(240)
    before = shrunk.keys.copy()
    spend(shrunk, report, 233, 403, iter_matchings(BipartiteFactor(233, shrunk)))
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
    # each check fails before a 1-factor is read, so none is given
    with pytest.raises(ConstructionError, match=match):
        spend(points, report, k, n, ())


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
        f = sample_r_factor(m, r, seed=40 + trial)
        s = f.points
        before = generic_line_sizes(s.sorted_xy())
        extractions.clear()
        out = construct._spend(s.mask(), r, 2, 0, iter_matchings(f))
        assert len(extractions) == 2
        after = generic_line_sizes(out.sorted_xy())
        for key, cnt in after.items():
            assert cnt <= before.get(key, cnt)


def test_spend_nothing_retargets_a_reserve_15_report(desk_scale_run, monkeypatch):
    # a report certified at reserve 15 comes back re-targeted to reserve 0
    cert, _ = desk_scale_run
    sweeps = []
    monkeypatch.setattr(construct, "verify", lambda *args: sweeps.append(args))
    out, rep = spend(
        cert.output, cert.report, 240, 400, iter_matchings(BipartiteFactor(240, cert.output))
    )
    assert out is cert.output and sweeps == []
    assert rep == replace(cert.report, required_reserve=0) and rep.passed


def test_adjustment_chain_at_scale(desk_scale_run, extractions):
    cert, _ = desk_scale_run
    assert cert.certified, cert.report.summary()
    shrunk, rep1 = spend(
        cert.output, cert.report, 233, 400, iter_matchings(BipartiteFactor(240, cert.output))
    )
    assert len(extractions) == 7
    assert rep1.passed
    assert rep1.achieved_reserve >= 8
    assert shrunk.is_regular(233)
    extractions.clear()
    grown, rep2 = spend(shrunk, rep1, 233, 403, iter_matchings(BipartiteFactor(233, shrunk)))
    assert len(extractions) == 3
    assert rep2.passed
    assert grown.n == 403
    assert len(grown) == 233 * 403
    assert grown.is_regular(233)


def test_spend_grow_by_two_keeps_rows_and_columns_exact(desk_scale_run):
    # grow by 2, spending 4 of the certified reserve 15
    cert, _ = desk_scale_run
    out, rep = spend(
        cert.output, cert.report, 240, 402, iter_matchings(BipartiteFactor(240, cert.output))
    )
    assert rep.passed
    assert out.n == 402
    assert out.is_regular(240)
    assert len(out) == 240 * 402


def _permuted_circulant(m, r, seed):
    """The circulant r-factor on [1,m]^2 under random row and column
    permutations."""
    rng = np.random.default_rng(seed)
    mask = bifactor._circulant(m, r)[rng.permutation(m)][:, rng.permutation(m)]
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
    f = _permuted_circulant(m, r, seed) if circulant else sample_r_factor(m, r, seed=seed).points
    once = construct._spend(f.mask(), r, drop, grow, iter_matchings(BipartiteFactor(r, f)))
    dropped = construct._spend(f.mask(), r, drop, 0, iter_matchings(BipartiteFactor(r, f)))
    grown = construct._spend(
        dropped.mask(), r - drop, 0, grow, iter_matchings(BipartiteFactor(r - drop, dropped))
    )
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
    cells, retry_factors = _sample_retry(matrix, seed, t)
    points = PointSet.from_mask(cells)
    factors = list(retry_factors)
    assert len(factors) == k
    for f in factors:
        assert sorted(f.tolist()) == list(range(1, n + 1))
    # k * n distinct cells, exactly the retry's
    keys = np.array([np.arange(n) * n + f - 1 for f in factors], dtype=np.int64).reshape(-1)
    assert np.array_equal(np.sort(keys), points.keys)
    # a prefix does not depend on how many are asked for, and a rerun
    # with the same seed gives the same factors
    j = data.draw(st.integers(0, k))
    prefix = list(islice(_sample_retry(matrix, seed, t)[1], j))
    assert [f.tolist() for f in prefix] == [f.tolist() for f in factors[:j]]
    assert [f.tolist() for f in _sample_retry(matrix, seed, t)[1]] == [f.tolist() for f in factors]


def test_retry_factors_reject_unequal_line_sums():
    _, factors = _sample_retry(FeasibilityMatrix(2, 3, [[1, 0], [0, 2]]), 0, 0)
    assert sorted(next(factors).tolist()) == list(range(1, 7))
    with pytest.raises(ConstructionError, match="unequal line sums"):
        next(factors)


def _swap_into_a_cell_outside_the_set(factors):
    # swapping two rows' columns keeps a permutation
    f = factors[1]
    inside = set(_S12.sorted_xy())
    a, b = next(
        (a, b) for a in range(12) for b in range(12) if (a + 1, int(f[b])) not in inside
    )
    f[a], f[b] = f[b], f[a]


def _repeat_a_factor(factors):
    factors[2] = factors[0].copy()


def _break_a_permutation(factors):
    factors[1][0] = factors[1][1]


def _shorten_a_factor(factors):
    factors[0] = factors[0][:-1]


def _give_too_few(factors):
    del factors[2]


@pytest.mark.parametrize(
    "mutate, match",
    [
        (_swap_into_a_cell_outside_the_set, "outside the set"),
        (_repeat_a_factor, "share a cell"),
        (_break_a_permutation, "not a permutation"),
        (_shorten_a_factor, "not a permutation"),
        (_give_too_few, "3 1-factors needed, 2 given"),
    ],
)
def test_spend_audit_rejects_bad_factors(mutate, match):
    factors = [np.array(f) for f in islice(iter_matchings(BipartiteFactor(8, _S12)), 3)]
    assert construct._spend(_S12.mask(), 8, 2, 1, [f.copy() for f in factors]).is_regular(6)
    mutate(factors)
    with pytest.raises(ConstructionError, match=match):
        construct._spend(_S12.mask(), 8, 2, 1, factors)


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

    def counting(points, k, reserve=0):
        calls.append((points.n, k, reserve))
        return verify(points, k, reserve)

    monkeypatch.setattr(construct, "verify", counting)
    cert = pipeline(n, k, seed=11)
    assert cert.certified
    assert calls == [(n, k, 0)] * cert.retries_used
    assert [s for s, _ in cert.lineage] == steps
    assert cert.output.n == n and cert.output.is_regular(k)
    assert cert.report == verify(cert.output, k, 0)


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


def test_pipeline_strict_mode_checks():
    with pytest.raises(ConstructionError):
        pipeline(50, 40, seed=0, strict=True)
    with pytest.raises(ConstructionError):
        pipeline(68, 20, seed=0, strict=True)  # below C*sqrt(n ln n)
    for C in (nan, inf, 0.0):
        with pytest.raises(ConstructionError, match="C must be positive and finite"):
            pipeline(68, 46, seed=0, strict=True, C=C)
    cert = pipeline(68, 46, seed=0, strict=True, C=1.0)
    assert cert.certified


def test_pipeline_rejects_out_of_range_k():
    with pytest.raises(ConstructionError):
        pipeline(10, 11, seed=0)
    with pytest.raises(ConstructionError):
        pipeline(10, 0, seed=0)


_M40 = feasibility_matrix_4x4(40, 30)


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
    ],
    ids=[
        "pipeline-k-float", "pipeline-n-float", "pipeline-k-bool", "pipeline-retries-float",
        "biuniform-k-float", "biuniform-retries-float", "explicit-k-float", "explicit-n-bool",
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
    cert = biuniform_construct(n, k, _M40, seed=5, max_retries=np.int64(3))
    assert cert.output == biuniform_construct(40, 30, _M40, seed=5, max_retries=3).output
    assert pipeline(np.int64(16), np.int64(11), seed=0).certified


def test_pipeline_too_small_for_randomized_route():
    with pytest.raises(ConstructionError):
        pipeline(10, 5, seed=0)  # rounds to n=8, k=10 > 5n/6
