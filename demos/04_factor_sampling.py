"""Random r-factors via the global Curveball chain, and their
decomposition into perfect matchings.

The chain starts from the circulant factor.  Each round pairs the rows
at random; each pair shuffles the columns that lie in exactly one of its
two rows and splits them back with each row's size unchanged, so every
state keeps all row and column degrees at r.  A factor is a plain
`PointSet` on [1,m]^2: cell (a, b) is the point (a, b), and
`iter_matchings` reads r off its size, r = len(points) // m.

This is the sampler for uniform random factors.  The randomized
construction's retries use `relabeled_circulants` instead: the circulant
factor under random row and column permutations, which is not uniform
but matches Curveball's reserve law, and whose every output the exact
verifier certifies.
"""

from nkline import PointSet, derive_seed, iter_matchings, matching_containment_probability, sample_r_factor

m, r = 40, 12

# single-cell marginal: should approach r/m
samples = 400
hits = sum(1 for i in range(samples) if (1, 1) in sample_r_factor(m, r, derive_seed(1, i)))
print(f"cell (1,1) frequency over {samples} samples: {hits / samples:.3f} (r/m = {r / m})")

# containment of a fixed 2-matching: should stay near (r/m)^2
p = matching_containment_probability(20, 6, 2, trials=1000, seed=2)
print(f"2-matching containment at m=20 r=6: {p:.4f} ((r/m)^2 = {(6 / 20) ** 2})")

# decompose one sample into r disjoint permutations
f = sample_r_factor(10, 4, seed=5)
matchings = list(iter_matchings(f))
print(f"one 4-factor on 10+10 vertices splits into {len(matchings)} matchings:")
for t, perm in enumerate(matchings):
    print(f"  matching {t}: {perm}")
cells = PointSet.from_points(10, [(a, b) for perm in matchings for a, b in enumerate(perm, start=1)])
assert cells == f
