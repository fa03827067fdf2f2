"""Closed-form constants of the randomized construction and the
parameter ranges they admit.

Natural logarithms throughout: the tail machinery behind these
constants is e-based, and only then does the growth coefficient of the
k threshold reproduce its exact algebraic value.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf, log, sqrt
from typing import Optional


@dataclass(frozen=True)
class BoundsProfile:
    """Derived constants for one parameter point.

    band_count b = 2m - 1 is the largest number of blocks one generic
    line can cross in an m x m decomposition.  tail_coeff scales the
    per-block deviation allowance, load_margin = sqrt(b*n)*tail_coeff + b
    is the whole-line allowance over the expected load, and
    k_min = (load_margin + h)/(1 - delta) is the smallest k for which a
    (k, delta)-feasible matrix yields reserve h with failure odds 1 - p.
    kappa_min = n^epsilon is the smallest admissible richness threshold.
    """

    n: int
    p: float
    epsilon: float
    delta: float
    h: int
    m: int
    K: float
    L: float
    tail_coeff: float
    load_margin: float
    k_min: float
    kappa_min: float

    @property
    def band_count(self) -> int:
        return 2 * self.m - 1


def compute_profile(
    n: int,
    p: float = 0.5,
    epsilon: float = 0.5,
    delta: float = 0.8,
    h: int = 15,
    m: int = 4,
    K: float = 1.0,
    L: float = 1.0,
) -> BoundsProfile:
    """Evaluate the constants at one parameter point.

    tail_coeff = sqrt((2 - 3*eps/2)*ln n + ln(b*K*L/(1-p))/2) with
    b = 2m - 1.  A nonpositive radicand is reported, not clamped.
    """
    if not 0 <= p < 1:
        raise ValueError(f"p must be in [0, 1), got {p}")
    if not 0 <= epsilon <= 1:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if not delta < 1:
        raise ValueError(f"delta must be < 1, got {delta}")
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    if not (0 < K < inf and 0 < L < inf):
        raise ValueError(f"K and L must be positive and finite, got K={K}, L={L}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    b = 2 * m - 1
    radicand = (2 - 1.5 * epsilon) * log(n) + 0.5 * log(b * K * L / (1 - p))
    if radicand <= 0:
        raise ValueError(f"tail coefficient radicand {radicand:.6g} is not positive")
    tail_coeff = sqrt(radicand)
    load_margin = sqrt(b * n) * tail_coeff + b
    k_min = (load_margin + h) / (1 - delta)
    return BoundsProfile(
        n=n,
        p=p,
        epsilon=epsilon,
        delta=delta,
        h=h,
        m=m,
        K=K,
        L=L,
        tail_coeff=tail_coeff,
        load_margin=load_margin,
        k_min=k_min,
        kappa_min=float(n) ** epsilon,
    )


def growth_coefficient(epsilon: float = 0.5, delta: float = 0.8, m: int = 4) -> float:
    """Limit of k_min / sqrt(n ln n): sqrt((2m-1)*(2 - 3*eps/2))/(1-delta)."""
    b = 2 * m - 1
    return sqrt(b * (2 - 1.5 * epsilon)) / (1 - delta)


def estimate_growth_coefficient(
    n: int,
    p: float = 0.5,
    epsilon: float = 0.5,
    delta: float = 0.8,
    h: int = 15,
    m: int = 4,
    K: float = 1.0,
    L: float = 1.0,
) -> float:
    """Extract the sqrt(n ln n) coefficient of k_min numerically.

    The plain ratio k_min / sqrt(n ln n) converges only at rate
    1/ln n (the K, L and additive terms decay very slowly), so the
    coefficient is recovered from two evaluations: the squared tail
    coefficient is affine in ln n, and its exact slope is the squared
    per-ln-n growth.
    """
    prof1 = compute_profile(n, p, epsilon, delta, h, m, K, L)
    prof2 = compute_profile(4 * n, p, epsilon, delta, h, m, K, L)
    b = 2 * m - 1

    def squared_tail(prof: BoundsProfile) -> float:
        margin = prof.k_min * (1 - delta) - h - b
        return margin * margin / (b * prof.n)

    slope_sq = (squared_tail(prof2) - squared_tail(prof1)) / (log(4 * n) - log(n))
    return sqrt(b * slope_sq) / (1 - delta)


def feasible_k_range(
    n: int,
    C: float,
    m: int = 4,
    multiple_of: int = 1,
) -> Optional[tuple[int, int]]:
    """Admissible k interval [ceil(C*sqrt(n ln n)), floor(5n/6)],
    optionally snapped inward to a divisibility lattice.  None when
    empty.  Both built-in matrices share the 5n/6 cap, so m only
    selects the profile and does not move the interval."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 0 < C < inf:
        raise ValueError(f"C must be positive and finite, got {C}")
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    lo = ceil(C * sqrt(n * log(n)))
    hi = (5 * n) // 6
    if multiple_of > 1:
        lo = multiple_of * ceil(lo / multiple_of)
        hi = multiple_of * (hi // multiple_of)
    if lo > hi:
        return None
    return lo, hi


def smallest_feasible_n(
    C: float,
    m: int = 4,
    multiple_of: int = 1,
    limit: int = 1 << 40,
) -> Optional[int]:
    """Smallest n with a nonempty feasible k range; a desk-scale proxy
    for the unspecified threshold beyond which the randomized regime
    opens up (no claim the true threshold equals it)."""
    lo, hi = 2, None
    n = 2
    while n <= limit:
        if feasible_k_range(n, C, m, multiple_of) is not None:
            hi = n
            break
        lo = n
        n *= 2
    if hi is None:
        return None
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if feasible_k_range(mid, C, m, multiple_of) is not None:
            hi = mid
        else:
            lo = mid
    return hi
