"""Tests for the constructions, the reserve spend and the pipeline."""

import hashlib
import random
from dataclasses import replace
from math import inf, nan

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nkline import bifactor, construct
from nkline.bifactor import sample_r_factor
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
from nkline.secants import VerificationReport, verify

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
    mat = feasibility_matrix_4x4(40, 30)
    with pytest.raises(ConstructionError):
        biuniform_construct(44, 30, mat, seed=0)
    with pytest.raises(ConstructionError):
        biuniform_construct(40, 20, mat, seed=0)


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
# moves the bytes of every bi-uniform construction
SEARCH_400_120_SHA256 = "5138b2e3e5b9f33a16e05b9bdac1501f6540008d1a9128e44a2cc7b8aee29b11"


def test_biuniform_search_400_120_golden_bytes():
    cert = biuniform_construct(
        400, 120, feasibility_matrix_4x4(400, 120), seed=7, max_retries=4, target_reserve=15
    )
    text = serialize(cert.output, 120, seed=7)
    assert hashlib.sha256(text.encode()).hexdigest() == SEARCH_400_120_SHA256
    assert cert.per_retry_reserves == (0, -2, -1, -5)


def _flip_cell(blocks):
    blocks[1, 0, 0] = ~blocks[1, 0, 0]


def _move_cell_within_its_row(blocks):
    row = blocks[1, 0]
    row[np.argmax(row)], row[np.argmin(row)] = False, True


@pytest.mark.parametrize("corrupt", [_flip_cell, _move_cell_within_its_row])
def test_sample_retry_audit_catches_a_corrupted_block(monkeypatch, corrupt):
    matrix = feasibility_matrix_4x4(40, 30)
    assert _sample_retry(matrix, 3, 0).is_regular(30)

    def corrupted(q, rs, seeds, rounds=None):
        blocks = bifactor.sample_blocks(q, rs, seeds, rounds)
        corrupt(blocks)
        return blocks

    monkeypatch.setattr(construct, "sample_blocks", corrupted)
    with pytest.raises(RuntimeError, match="degree audit"):
        _sample_retry(matrix, 3, 0)


def test_adjust_k_noop(monkeypatch):
    # nothing spent: the same set and its own report come back unswept
    s = explicit_construct(12, 8)
    report = verify(s, 8, 0)
    sweeps = []
    monkeypatch.setattr(construct, "verify", lambda *args: sweeps.append(args))
    out, rep = spend(s, report, 8, 12)
    assert out is s and rep == report and rep.passed
    assert sweeps == []


def test_adjust_k_full_grid_degree_audit():
    n = 6
    full = PointSet.from_points(n, [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)])
    out = construct._spend(full, n, 1, 0)
    assert len(out) == n * (n - 1)
    assert out.is_regular(n - 1)


def test_adjustments_leave_their_input_unchanged(desk_scale_run):
    cert, _ = desk_scale_run
    s = cert.output
    before = s.keys.copy()
    shrunk, report = spend(s, cert.report, 233, 400)
    assert np.array_equal(s.keys, before)
    assert len(s) == 240 * 400 and s.is_regular(240)
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
    with pytest.raises(ConstructionError, match=match):
        spend(points, report, k, n)


@pytest.fixture
def extractions(monkeypatch):
    """List that grows by one entry per perfect-matching extraction."""
    calls = []
    matcher = bifactor._hopcroft_karp

    def counting(m, adj):
        calls.append(m)
        return matcher(m, adj)

    monkeypatch.setattr(bifactor, "_hopcroft_karp", counting)
    return calls


def test_adjust_k_never_increases_any_line_count(extractions):
    # sampled factors carry no verified reserve, so the kernel is driven directly
    rng = random.Random(3)
    for trial in range(4):
        m = rng.choice([8, 10, 12])
        r = rng.randint(3, m - 1)
        f = sample_r_factor(m, r, seed=40 + trial)
        s = f.points
        before = generic_line_sizes(s.sorted_xy())
        extractions.clear()
        out = construct._spend(s, r, 2, 0)
        assert len(extractions) == 2
        after = generic_line_sizes(out.sorted_xy())
        for key, cnt in after.items():
            assert cnt <= before.get(key, cnt)


def test_adjust_n_noop_for_zero_slack(desk_scale_run, monkeypatch):
    # a report certified at reserve 15 comes back re-targeted to reserve 0
    cert, _ = desk_scale_run
    sweeps = []
    monkeypatch.setattr(construct, "verify", lambda *args: sweeps.append(args))
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


def test_adjust_n_row_col_exactness_small(desk_scale_run):
    # grow by 2, spending 4 of the certified reserve 15
    cert, _ = desk_scale_run
    out, rep = spend(cert.output, cert.report, 240, 402)
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
    once = construct._spend(f, r, drop, grow)
    assert once == construct._spend(construct._spend(f, r, drop, 0), r - drop, 0, grow)
    assert once.n == m + grow and once.is_regular(r - drop)


def test_pipeline_spends_from_one_audit_and_one_bitset_build(monkeypatch, extractions):
    builds, audits = [], []
    row_bitsets = bifactor._row_bitsets
    audit = bifactor.BipartiteFactor.__post_init__

    def counting_builds(points):
        builds.append(points.n)
        return row_bitsets(points)

    def counting_audits(self):
        audits.append(self.r)
        audit(self)

    monkeypatch.setattr(bifactor, "_row_bitsets", counting_builds)
    monkeypatch.setattr(bifactor.BipartiteFactor, "__post_init__", counting_audits)
    cert = pipeline(403, 233, seed=11)
    assert cert.certified
    assert builds == [400] and audits == [240] and len(extractions) == 10


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


def test_pipeline_verifies_twice(monkeypatch):
    # one retry, then the output of the one-step spend; no 233 x 400
    # set between dropping and growing is built, so none is swept
    calls = []

    def counting(points, k, reserve=0):
        calls.append((points.n, k, reserve))
        return verify(points, k, reserve)

    monkeypatch.setattr(construct, "verify", counting)
    cert = pipeline(403, 233, seed=11)
    assert cert.certified
    assert calls == [(400, 240, 15), (403, 233, 0)]


def _count_verify_calls(monkeypatch, n, k):
    calls = []

    def counting(points, k, reserve=0):
        calls.append((points.n, k, reserve))
        return verify(points, k, reserve)

    monkeypatch.setattr(construct, "verify", counting)
    cert = pipeline(n, k, seed=11)
    assert cert.certified
    assert cert.output.n == n and cert.output.is_regular(k)
    return cert, calls


def test_pipeline_verifies_once_when_n_and_k_are_round(monkeypatch):
    # no reserve is spent, so the retry's sweep is the only one; the
    # reserve-0 report is read off it
    cert, calls = _count_verify_calls(monkeypatch, 400, 230)
    assert calls == [(400, 230, 15)]
    assert [s for s, _ in cert.lineage] == ["biuniform", "spend"]
    assert cert.report == verify(cert.output, 230, 0)


def test_pipeline_verifies_twice_when_only_n_is_round(monkeypatch):
    cert, calls = _count_verify_calls(monkeypatch, 400, 233)
    assert calls == [(400, 240, 15), (400, 233, 0)]
    assert [s for s, _ in cert.lineage] == ["biuniform", "spend"]
    assert cert.report == verify(cert.output, 233, 0)


def test_pipeline_retries_exhausted_carries_best_effort():
    # reserve 15 is out of reach at k=120 on a 400-grid; the failure
    # must surface the best sample, which is still an exact 120-factor
    with pytest.raises(RetriesExhausted) as exc:
        pipeline(403, 113, seed=7, max_retries=2)
    cert = exc.value.certificate
    assert not cert.certified
    assert cert.output.is_regular(120)
    assert len(cert.per_retry_reserves) == 2


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


def test_pipeline_too_small_for_randomized_route():
    with pytest.raises(ConstructionError):
        pipeline(10, 5, seed=0)  # rounds to n=8, k=10 > 5n/6
