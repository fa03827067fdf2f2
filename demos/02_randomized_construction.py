"""The randomized route: per-block random factors, retried until the
sweep verifier certifies, then reserve spent to fix up k and n.

Density matrices put 2k/10 on the blocks the long diagonals cross and
3k/10 elsewhere, so the expected count on every generic secant stays at
(4/5)k while rows and columns land exactly on k.
"""

import time

from nkline import (
    biuniform_construct,
    feasibility_matrix_4x4,
    is_feasible,
    max_expected_load,
    pipeline,
)
from fractions import Fraction

# the density matrix and its exact worst-case expected load
mat = feasibility_matrix_4x4(40, 30)
print(f"4x4 matrix for n=40, k=30: {mat.entries}")
print(f"max expected secant load: {max_expected_load(mat)} = (4/5)*30")
print(f"(30, 4/5)-feasible: {is_feasible(mat, 30, Fraction(4, 5)).ok}")

# sample until certified at reserve 0
cert = biuniform_construct(40, 30, mat, seed=7, max_retries=16, target_reserve=0)
print(
    f"n=40 k=30: certified={cert.certified} after {cert.retries_used} retries; "
    f"per-retry reserves {list(cert.per_retry_reserves)}"
)

# the full pipeline: sample each retry on the divisible lattice
# (400, 240), shrink k back and grow n back with the retry's own
# shift-class 1-factors, then verify the spent set at reserve 0
t0 = time.time()
cert = pipeline(403, 233, seed=11, max_retries=16)
print(
    f"pipeline(403, 233): certified={cert.certified} size={len(cert.output)} "
    f"(= 233*403 = {233 * 403}) in {time.time() - t0:.1f}s"
)
for step, params in cert.lineage:
    print(f"  {step}: {params}")
print(cert.report.summary())
