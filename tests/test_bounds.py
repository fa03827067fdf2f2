"""Tests for the derived constants and parameter ranges."""

from decimal import Decimal, getcontext
from math import inf, log, nan, sqrt

import numpy as np
import pytest

from nkline.bounds import (
    compute_profile,
    estimate_growth_coefficient,
    feasible_k_range,
    growth_coefficient,
    smallest_feasible_n,
)
from nkline.secants import census, richness_bound


def _tail_coeff_decimal(n, p, epsilon, b, K, L):
    """High-precision reference evaluation."""
    getcontext().prec = 50
    term = (Decimal(2) - Decimal(3) * Decimal(str(epsilon)) / 2) * Decimal(n).ln()
    term += (Decimal(b) * Decimal(str(K)) * Decimal(str(L)) / (1 - Decimal(str(p)))).ln() / 2
    return term.sqrt()


def test_tail_coeff_matches_highprecision_reference():
    prof = compute_profile(10**6, p=0.5, epsilon=0.5, m=4, K=1.0, L=1.0)
    ref = _tail_coeff_decimal(10**6, 0.5, 0.5, 7, 1.0, 1.0)
    assert abs(prof.tail_coeff - float(ref)) < 1e-12
    assert abs(prof.tail_coeff - 4.312) < 1e-3


def test_profile_relation_exact():
    for n in (100, 10**4, 10**9):
        for h in (0, 7, 15):
            for delta in (0.5, 0.8):
                prof = compute_profile(n, delta=delta, h=h)
                assert prof.k_min * (1 - delta) == pytest.approx(
                    prof.load_margin + h, rel=1e-12
                )


def test_profile_monotonicity():
    base = dict(p=0.5, epsilon=0.5, delta=0.8, h=15, m=4)
    ns = [100, 10**3, 10**4, 10**6, 10**9]
    vals = [compute_profile(n, **base) for n in ns]
    for a, b in zip(vals, vals[1:]):
        assert a.tail_coeff <= b.tail_coeff
        assert a.load_margin <= b.load_margin
        assert a.k_min <= b.k_min
    for h1, h2 in [(0, 5), (5, 15)]:
        assert compute_profile(10**4, h=h1).k_min <= compute_profile(10**4, h=h2).k_min
    for p1, p2 in [(0.1, 0.5), (0.5, 0.9)]:
        assert compute_profile(10**4, p=p1).k_min <= compute_profile(10**4, p=p2).k_min


def test_profile_band_count_and_kappa_min():
    prof = compute_profile(10**4, epsilon=0.5, m=3)
    assert prof.band_count == 5
    assert prof.kappa_min == pytest.approx(100.0)


def test_profile_rejects_bad_parameters():
    with pytest.raises(ValueError):
        compute_profile(10**4, p=1.0)
    with pytest.raises(ValueError):
        compute_profile(10**4, epsilon=1.5)
    with pytest.raises(ValueError):
        compute_profile(10**4, delta=1.0)
    with pytest.raises(ValueError):
        compute_profile(10**4, m=1)
    with pytest.raises(ValueError):
        compute_profile(1)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(delta=-inf),
        dict(delta=nan),
        dict(delta=1.0),
        dict(epsilon=nan),
        dict(epsilon=1.5),
        dict(m=1),
    ],
)
def test_profile_and_growth_coefficient_reject_the_same_shape_parameters(kwargs):
    # delta = -inf used to give k_min = 0, a threshold that admits every k
    with pytest.raises(ValueError):
        compute_profile(10**4, **kwargs)
    with pytest.raises(ValueError):
        growth_coefficient(**kwargs)


@pytest.mark.parametrize(
    "func, args, kwargs",
    [
        (feasible_k_range, (100.5, 1.0), {}),
        (compute_profile, (100.5,), {}),
        (compute_profile, (100,), dict(h=2.5)),
        (compute_profile, (100,), dict(m=2.5)),
        (compute_profile, (True,), {}),
        (growth_coefficient, (), dict(m=2.5)),
        (estimate_growth_coefficient, (100.5,), {}),
        (richness_bound, (100.5, 2), {}),
        (census, (20.5, 3), {}),
        (census, (20, 3.0), {}),
    ],
)
def test_sizes_that_are_not_integers_are_rejected(func, args, kwargs):
    # a float n would give the feasible k range a float upper end
    with pytest.raises(ValueError, match="must be an integer"):
        func(*args, **kwargs)


def test_sizes_may_be_numpy_integers():
    n, h, m = np.int64(10**5), np.int64(15), np.int64(3)
    assert compute_profile(n, h=h, m=m).k_min == compute_profile(10**5, h=15, m=3).k_min
    assert growth_coefficient(m=m) == growth_coefficient(m=3)
    assert feasible_k_range(n, 12.5) == feasible_k_range(10**5, 12.5)
    assert census(np.int64(20), np.int64(3)).count == census(20, 3).count
    assert richness_bound(np.int64(10), 10.0) == richness_bound(10, 10.0)


def test_growth_coefficient_closed_forms():
    assert growth_coefficient(0.5, 0.8, 4) == pytest.approx(2.5 * sqrt(35), rel=1e-12)
    assert growth_coefficient(0.5, 0.8, 3) == pytest.approx(12.5, rel=1e-12)


def test_growth_coefficient_extraction_at_large_n():
    est4 = estimate_growth_coefficient(10**12, m=4)
    assert abs(est4 - 2.5 * sqrt(35)) < 1e-6
    est3 = estimate_growth_coefficient(10**12, m=3)
    assert abs(est3 - 12.5) < 1e-6


def test_plain_ratio_converges_from_above():
    # the raw ratio k_min/sqrt(n ln n) sits ~2% above the limit at
    # n = 10^12 because the K*L log term decays only like 1/ln n
    prof = compute_profile(10**12, m=4)
    ratio = prof.k_min / sqrt(10**12 * log(10**12))
    limit = growth_coefficient(0.5, 0.8, 4)
    assert limit < ratio < limit * 1.05


def test_feasible_k_range_examples():
    assert feasible_k_range(100, 14.79) is None
    rng = feasible_k_range(10**5, 12.5)
    assert rng is not None
    lo, hi = rng
    from math import ceil

    assert lo == ceil(12.5 * sqrt(10**5 * log(10**5)))
    assert hi == (5 * 10**5) // 6
    assert feasible_k_range(2, 100) is None


def test_profile_rejects_a_negative_reserve_and_a_nonpositive_radicand():
    with pytest.raises(ValueError, match="h must be >= 0"):
        compute_profile(100, h=-1)
    # ln(100)/2 + ln(7e-9/0.5)/2 = -6.73952
    with pytest.raises(ValueError, match=r"radicand -6\.73952 is not positive"):
        compute_profile(100, epsilon=1, K=1e-9)


def test_feasible_k_range_rejects_a_grid_side_below_2():
    with pytest.raises(ValueError, match="n must be >= 2"):
        feasible_k_range(1, 1.0)


def test_smallest_feasible_n_matches_a_linear_scan():
    # a nonempty range is not monotone in n: at C = 1.4731, n = 6 has
    # [5, 5] and n = 7 and 8 have none, since 5n/6 rounds down
    assert feasible_k_range(6, 1.4731) == (5, 5)
    assert feasible_k_range(7, 1.4731) is None and feasible_k_range(8, 1.4731) is None
    assert smallest_feasible_n(1.4731) == 6
    for C in np.linspace(0.05, 5, 250).tolist():
        want = next(n for n in range(2, 1000) if feasible_k_range(n, C) is not None)
        assert smallest_feasible_n(C) == want, C


def test_smallest_feasible_n_keeps_its_answers_and_its_errors():
    assert [smallest_feasible_n(C) for C in (12.5, 14.790199, 0.5, 1e6)] == [1671, 2460, 2, None]
    for C in (0, -1.0, nan, inf):
        with pytest.raises(ValueError, match="C must be positive and finite"):
            smallest_feasible_n(C)


def test_smallest_feasible_n_is_none_past_the_float_range():
    # no k range is nonempty up to 2^40, though C*sqrt(n ln n)
    # overflows a float long before; an overflow at n = 2 still raises
    assert smallest_feasible_n(1e307) is None
    with pytest.raises(ValueError, match="overflows a float"):
        smallest_feasible_n(1.6e308)


def test_smallest_feasible_n_is_a_boundary():
    n0 = smallest_feasible_n(12.5)
    assert n0 is not None
    assert feasible_k_range(n0, 12.5) is not None
    assert feasible_k_range(n0 - 1, 12.5) is None
