"""Closed-form constants of the randomized construction and the
parameter ranges they admit.

Natural logarithms throughout: the tail machinery behind these
constants is e-based, and only then does the growth coefficient of the
k threshold reproduce its exact algebraic value.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import ceil, inf, log, sqrt
from typing import Optional

from .grid import _check_int


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


def _check_epsilon_delta_m(epsilon: float, delta: float, m: int) -> None:
    _check_int(m=m)
    if not 0 <= epsilon <= 1:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if not -inf < delta < 1:
        raise ValueError(f"delta must be finite and < 1, got {delta}")
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")


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
    b = 2m - 1.  A nonpositive radicand is reported, not clamped.  n, h
    and m must be integers (numpy integers pass).
    """
    _check_int(n=n, h=h)
    if not 0 <= p < 1:
        raise ValueError(f"p must be in [0, 1), got {p}")
    _check_epsilon_delta_m(epsilon, delta, m)
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
    _check_epsilon_delta_m(epsilon, delta, m)
    b = 2 * m - 1
    return sqrt(b * (2 - 1.5 * epsilon)) / (1 - delta)


def estimate_growth_coefficient(n: int, m: int = 4) -> float:
    """Extract the sqrt(n ln n) coefficient of k_min numerically, at the
    default parameter point of `compute_profile` with m x m blocks.

    The plain ratio k_min / sqrt(n ln n) converges only at rate
    1/ln n (the K, L and additive terms decay very slowly), so the
    coefficient is recovered from two evaluations: the squared tail
    coefficient is affine in ln n, and its exact slope is the squared
    per-ln-n growth.
    """
    prof1 = compute_profile(n, m=m)
    prof2 = compute_profile(4 * n, m=m)
    b = prof1.band_count

    def squared_tail(prof: BoundsProfile) -> float:
        margin = prof.k_min * (1 - prof.delta) - prof.h - b
        return margin * margin / (b * prof.n)

    slope_sq = (squared_tail(prof2) - squared_tail(prof1)) / (log(4 * n) - log(n))
    return sqrt(b * slope_sq) / (1 - prof1.delta)


def feasible_k_range(n: int, C: float) -> Optional[tuple[int, int]]:
    """Admissible k interval [ceil(C*sqrt(n ln n)), floor(5n/6)]; None
    when empty.  Both built-in matrices share the 5n/6 cap.  n must be
    an integer (numpy integers pass); a C that makes C*sqrt(n ln n)
    overflow a float raises ValueError."""
    _check_int(n=n)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 0 < C < inf:
        raise ValueError(f"C must be positive and finite, got {C}")
    scaled = C * sqrt(n * log(n))
    if scaled == inf:
        raise ValueError(f"C*sqrt(n ln n) overflows a float for C={C}, n={n}")
    lo = ceil(scaled)
    hi = (5 * n) // 6
    if lo > hi:
        return None
    return lo, hi


def smallest_feasible_n(C: float) -> Optional[int]:
    """Smallest n <= 2^40 with a nonempty feasible k range; a desk-scale
    proxy for the unspecified threshold beyond which the randomized
    regime opens up (no claim the true threshold equals it).

    A nonempty range needs C*sqrt(n ln n) <= 5n/6.  Feasibility itself
    is not monotone in n, but from n = 3 on that inequality stays true
    once it holds, since sqrt(ln n / n) falls there; so its first n is
    bisected, and the walk up from there stops at the first n whose
    integer range is nonempty."""
    if feasible_k_range(2, C) is not None:
        return 2
    fits = bisect_left(range(2**40 + 1), True, 3, key=lambda n: C * sqrt(n * log(n)) <= 5 * n / 6)
    return next((n for n in range(fits, 2**40 + 1) if feasible_k_range(n, C)), None)
