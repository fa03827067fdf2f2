"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see the lines for passing criteria too).

Criteria 8-10 share one desk-scale randomized run with a fixed master
seed: n=400, k=240, target reserve 15, on the 400/240 matrix that
pipeline(403, 233) samples from (the pipeline itself samples at its own
seed and sweeps only the spent set, at reserve 0).
Its expected worst load is 192 = 4/5*k, which leaves a margin of 33
(about 3 sigma) under the 225 that reserve 15 allows.  Criterion 9
spends that reserve on the chain k 240 -> 233, n 400 -> 403.

Reserve 15 is not pinned at k=120: there the expected load is exactly
96 = 4/5*k on 402 slope +-1 lines, the realized loads spread with
sigma ~ 8, reserve 15 needs every one of them at <= 105 (mean + 1.1
sigma), and the best reserve over 64 retries at the master seed is 4.
compute_profile(400) puts k_min for h=15 near 895 > n, so the paper's
bound promises no reserve there.  Criterion 8 keeps k=120 at the
reserve the paper does state, 0: a 120-regular set with no 121 points
on a line.
"""

import time
from fractions import Fraction
from math import pi, sqrt

from nkline.bifactor import (
    derive_seed,
    iter_matchings,
    matching_containment_probability,
    sample_r_factor,
)
from nkline.bounds import estimate_growth_coefficient
from nkline.construct import biuniform_construct, explicit_construct, spend
from nkline.grid import feasibility_matrix_3x3, feasibility_matrix_4x4, max_expected_load
from nkline.pointfile import serialize
from nkline.secants import census, verify

from conftest import ACCEPTANCE_SEED, DESK_K, DESK_N, DESK_RESERVE, desk_scale_construct
from oracles import brute_max_expected_load, grid_line_sizes, matching_cells

CHAIN_N, CHAIN_K = 403, 233


def _report(criterion, ok, detail):
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_explicit_exactness():
    t0 = time.perf_counter()
    s = explicit_construct(16, 11)
    rep = verify(s, 11, 0)
    elapsed = time.perf_counter() - t0
    ok = (
        len(s) == 176
        and s.is_regular(11)
        and rep.passed
        and rep.generic_max <= 11
        and elapsed < 1.0
    )
    _report(1, ok, f"176-point set, rows/cols exactly 11, exact pass, {elapsed:.3f}s")
    assert len(s) == 176
    assert s.is_regular(11)
    assert rep.passed
    assert elapsed < 1.0


def test_criterion_02_explicit_regime_sweep():
    t0 = time.perf_counter()
    runs = 0
    for n in range(12, 61):
        for k in range(-(-2 * n // 3), n + 1):
            s = explicit_construct(n, k)
            assert len(s) == k * n, (n, k)
            assert s.is_regular(k), (n, k)
            rep = verify(s, k, 0)
            assert rep.passed, (n, k, rep.summary())
            runs += 1
    elapsed = time.perf_counter() - t0
    _report(2, elapsed < 60, f"{runs} (n,k) pairs exactly verified in {elapsed:.1f}s")
    assert elapsed < 60


def test_criterion_03_feasibility_exactness():
    m4 = feasibility_matrix_4x4(40, 30)
    load4 = max_expected_load(m4)
    brute4 = brute_max_expected_load(m4)
    m3 = feasibility_matrix_3x3(30, 20)
    load3 = max_expected_load(m3)
    brute3 = brute_max_expected_load(m3)
    ok = load4 == brute4 == 24 and load3 == brute3 == 16
    _report(3, ok, f"4x4 load {load4} (brute {brute4}), 3x3 load {load3} (brute {brute3}), exact")
    assert load4 == Fraction(4, 5) * 30 == 24
    assert brute4 == 24
    assert load3 == Fraction(4, 5) * 20 == 16
    assert brute3 == 16


def test_criterion_04_bounds_growth_coefficients():
    est4 = estimate_growth_coefficient(10**12, m=4)
    est3 = estimate_growth_coefficient(10**12, m=3)
    want4 = 2.5 * sqrt(35)
    want3 = 12.5
    ok = abs(est4 - want4) < 1e-3 and abs(est3 - want3) < 1e-3
    _report(4, ok, f"m=4: {est4:.6f} vs {want4:.6f}; m=3: {est3:.6f} vs 12.5")
    assert abs(est4 - want4) < 1e-3
    assert abs(est3 - want3) < 1e-3


def test_criterion_05_census_exact_and_asymptotic():
    t0 = time.perf_counter()
    for n in range(2, 31):
        sizes = grid_line_sizes(n)
        for j in range(2, n + 2):
            brute = sum(1 for c in sizes.values() if c >= j)
            assert census(n, j).count == brute, (n, j)
    count = census(200, 20).count
    ratio = count / ((6 / pi**2) * 200**4 / 20**3)
    elapsed = time.perf_counter() - t0
    ok = 0.5 <= ratio <= 1.5 and elapsed < 30
    _report(5, ok, f"closed form == pair oracle for n<=30; n=200 j=20 count={count} ratio={ratio:.3f}; {elapsed:.1f}s")
    assert 0.5 <= ratio <= 1.5
    assert elapsed < 30


def test_criterion_06_sampler_marginals():
    m, r, seeds = 40, 12, 2000
    hits = 0
    for i in range(seeds):
        f = sample_r_factor(m, r, derive_seed(101, i))
        if (1, 1) in f:
            hits += 1
    freq = hits / seeds
    se = sqrt(0.3 * 0.7 / seeds)
    marginal_ok = abs(freq - 0.3) <= 5 * se

    p_hat = matching_containment_probability(20, 6, 2, trials=5000, seed=202)
    bound = 1.5 * 0.3**2
    containment_ok = p_hat <= bound
    _report(
        6,
        marginal_ok and containment_ok,
        f"cell freq {freq:.4f} vs 0.3 (5se={5*se:.4f}); containment {p_hat:.4f} <= {bound}",
    )
    assert marginal_ok
    assert containment_ok


def test_criterion_07_factorization_roundtrip():
    import random

    rng = random.Random(303)
    done = 0
    for trial in range(100):
        m = rng.randint(1, 200)
        r = rng.randint(0, m)
        f = sample_r_factor(m, r, derive_seed(404, trial))
        matchings = list(iter_matchings(f))
        assert len(matchings) == r, (m, r)
        seen = set()
        for t in range(r):
            cells = set(matching_cells(m, matchings[t : t + 1]).sorted_xy())
            assert len(cells) == m
            assert not (cells & seen), (m, r, t)
            seen |= cells
        assert seen == set(f.sorted_xy()), (m, r)
        done += 1
    _report(7, done == 100, f"{done} random factors decomposed into disjoint matchings")
    assert done == 100


def _adjust_chain(cert):
    shrunk, rep1 = spend(cert.output, cert.report, CHAIN_K, DESK_N)
    grown, rep2 = spend(shrunk, rep1, CHAIN_K, CHAIN_N)
    return shrunk, rep1, grown, rep2


def test_criterion_08_biuniform_desk_scale(desk_scale_run):
    cert, elapsed = desk_scale_run
    small_matrix = feasibility_matrix_4x4(400, 120)
    small = biuniform_construct(
        400, 120, small_matrix, seed=ACCEPTANCE_SEED, max_retries=64, target_reserve=0
    )
    detail = (
        f"n={DESK_N} k={DESK_K} target reserve {DESK_RESERVE}: "
        f"certified={cert.certified} at retry {cert.retries_used}, "
        f"achieved reserve {cert.report.achieved_reserve}, size {len(cert.output)}, "
        f"{elapsed:.0f}s; n=400 k=120 target reserve 0: certified={small.certified}, "
        f"realized worst load {120 - small.report.achieved_reserve} vs exact "
        f"max expected load {max_expected_load(small_matrix)}, best reserve "
        f"{max(small.per_retry_reserves)} over {small.retries_used} retries"
    )
    _report(
        8,
        cert.certified
        and cert.report.achieved_reserve >= DESK_RESERVE
        and elapsed < 600
        and small.certified,
        detail,
    )
    assert cert.certified, cert.report.summary()
    assert cert.report.achieved_reserve >= DESK_RESERVE
    assert len(cert.output) == DESK_K * DESK_N == 96000
    assert cert.output.is_regular(DESK_K)
    assert elapsed < 600
    assert small.certified, small.report.summary()
    assert small.report.passed and small.report.generic_max <= 120
    assert len(small.output) == 48000
    assert small.output.is_regular(120)


def test_criterion_09_adjustment_chain(desk_scale_run):
    cert, _ = desk_scale_run
    assert cert.certified, "criterion 8 produced no certified input to adjust"
    reserve = cert.report.required_reserve
    shrunk, rep1, grown, rep2 = _adjust_chain(cert)
    assert rep1.passed
    assert rep1.achieved_reserve >= reserve - (DESK_K - CHAIN_K) == 8
    assert shrunk.is_regular(CHAIN_K)
    assert rep2.passed
    assert grown.n == CHAIN_N
    assert len(grown) == CHAIN_K * CHAIN_N
    assert grown.is_regular(CHAIN_K)
    _report(
        9,
        True,
        f"adjust chain {DESK_K}->{CHAIN_K}, {DESK_N}->{CHAIN_N} certified with exact "
        f"audits (reserve {reserve} in, {rep1.achieved_reserve} after spending k)",
    )


def test_criterion_10_byte_determinism(desk_scale_run, tmp_path):
    cert, _ = desk_scale_run
    rerun = desk_scale_construct()
    assert cert.certified and rerun.certified, "no certified desk-scale run to compare"
    reserve = cert.report.required_reserve
    first = serialize(cert.output, DESK_K, reserve=reserve, seed=ACCEPTANCE_SEED)
    second = serialize(rerun.output, DESK_K, reserve=reserve, seed=ACCEPTANCE_SEED)
    (tmp_path / "run1.txt").write_text(first)
    (tmp_path / "run2.txt").write_text(second)
    files_equal = (tmp_path / "run1.txt").read_bytes() == (tmp_path / "run2.txt").read_bytes()
    _, _, b1, _ = _adjust_chain(cert)
    _, _, b2, _ = _adjust_chain(rerun)
    chain_equal = serialize(b1, CHAIN_K, seed=ACCEPTANCE_SEED) == serialize(
        b2, CHAIN_K, seed=ACCEPTANCE_SEED
    )
    _report(10, files_equal and chain_equal, "reruns with the master seed are byte-identical")
    assert cert.per_retry_reserves == rerun.per_retry_reserves
    assert files_equal
    assert chain_equal
