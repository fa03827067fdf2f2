"""The constants behind the randomized construction and where the
guaranteed regime opens up.

k_min is the smallest k for which the concentration argument certifies
a reserve-h set with failure probability 1-p; it grows like
C * sqrt(n ln n) with C depending on the block count.
"""

from math import log, sqrt

from nkline import (
    compute_profile,
    estimate_growth_coefficient,
    feasible_k_range,
    growth_coefficient,
    smallest_feasible_n,
)

print(f"{'n':>12} {'tail_coeff':>11} {'load_margin':>12} {'k_min':>12} {'k_min/n':>8}")
for exp in (4, 6, 8, 10, 12):
    n = 10**exp
    prof = compute_profile(n, p=0.5, epsilon=0.5, delta=0.8, h=15, m=4)
    print(
        f"{n:>12} {prof.tail_coeff:>11.3f} {prof.load_margin:>12.0f} "
        f"{prof.k_min:>12.0f} {prof.k_min / n:>8.4f}"
    )

print()
for m in (3, 4):
    limit = growth_coefficient(0.5, 0.8, m)
    est = estimate_growth_coefficient(10**12, m=m)
    print(f"m={m}: k_min growth coefficient {limit:.4f} (extracted numerically: {est:.4f})")

print()
for C in (12.5, 14.8):
    n0 = smallest_feasible_n(C)
    rng = feasible_k_range(n0, C)
    print(f"C={C}: smallest n with a nonempty k range is {n0}; k range there {rng}")

plain = compute_profile(10**12, m=4).k_min / sqrt(10**12 * log(10**12))
print(f"plain k_min/sqrt(n ln n) at n=1e12 (m=4): {plain:.4f} -> limit {growth_coefficient():.4f}")
