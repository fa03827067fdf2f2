"""Point-set constructions: the explicit large-k complement, the
bi-uniform randomized construction, the step that spends verified
reserve to shrink k and grow n, and the end-to-end pipeline.

Every construction output is certified by the sweep verifier rather
than trusted; randomized steps are reproducible from a master seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from math import ceil, inf, log, sqrt
from typing import Iterable, Iterator, Optional

import numpy as np

from .bifactor import (
    _circulant,
    _hopcroft_karp,
    _permuted_circulants,
    _relabelings,
    derive_seed,
)
from .grid import FeasibilityMatrix, PointSet, _check_int, feasibility_matrix_4x4
from .secants import VerificationReport, verify


class ConstructionError(ValueError):
    """Invalid arguments or broken preconditions for a construction."""


class RetriesExhausted(RuntimeError):
    """All randomized retries failed; carries the best-effort certificate."""

    def __init__(self, certificate: "ConstructionCertificate"):
        super().__init__(
            f"no certified set within {certificate.retries_used} retries; "
            f"best achieved reserve {certificate.report.achieved_reserve}"
        )
        self.certificate = certificate


@dataclass(frozen=True)
class ConstructionCertificate:
    """Construction outcome.  Stores the seed, the (best) output set, its
    verification report, the ordered lineage of applied steps and the
    achieved reserve of each randomized retry.  n is `output.n` and k is
    `report.k`; certified and retries_used are derived."""

    seed: Optional[int]
    output: PointSet
    report: VerificationReport
    lineage: tuple[tuple[str, dict], ...]
    per_retry_reserves: tuple[int, ...] = ()

    @property
    def certified(self) -> bool:
        return self.report.passed

    @property
    def retries_used(self) -> int:
        return len(self.per_retry_reserves)


def explicit_construct(n: int, k: int) -> PointSet:
    """No-(k+1)-in-line set of size k*n for 2n/3 <= k <= n.

    Builds the complement: two (n-k)-square blocks hugging the two main
    diagonals plus a circulant (n-k)-factor on the rows and columns the
    squares leave empty; the returned set is the grid minus that
    complement and holds exactly k points in every row and column.
    """
    _check_int(n=n, k=k)
    if not (0 <= k <= n):
        raise ConstructionError(f"k={k} outside [0, n={n}]")
    if 3 * k < 2 * n:
        raise ConstructionError(f"k={k} below 2n/3 (n={n}); the filler factor needs n-k <= 2k-n")
    s = n - k
    # complement[x-1, y-1]: cell (x, y) is left out
    complement = np.zeros((n, n), dtype=bool)
    # low square on the main diagonal, offset square on the antidiagonal
    complement[:s, :s] = True
    complement[s : 2 * s, 2 * k - n : k] = True
    # the circulant s-factor on the columns and rows the squares miss:
    # its cell (a, c) is (cols[a-1], rows[c-1])
    cols = np.arange(2 * s + 1, n + 1)
    rows = np.arange(s + 1, n + 1)
    rows = rows[(rows <= 2 * k - n) | (rows > k)]
    assert len(rows) == len(cols) == 2 * k - n
    complement[np.ix_(cols - 1, rows - 1)] |= _circulant(2 * k - n, s)
    out = PointSet.from_mask(~complement)
    assert len(out) == k * n
    return out


def explicit_certificate(n: int, k: int, seed: Optional[int] = None) -> ConstructionCertificate:
    """`explicit_construct(n, k)` with its verification report at reserve 0."""
    points = explicit_construct(n, k)
    return ConstructionCertificate(
        seed=seed,
        output=points,
        report=verify(points, k, 0),
        lineage=(("explicit", {"n": n, "k": k}),),
    )


def _sample_retry(matrix: FeasibilityMatrix, seed: int, t: int) -> tuple[np.ndarray, Iterator]:
    """Retry t: the n x n bool mask of the union of the per-block
    factors, and its 1-factors.

    Block (i, j) gets an r_{i,j}-factor, a relabeled circulant
    (`relabeled_circulants`) whose sigma, tau are drawn once, with seed
    derived from (seed, t, i, j), blocks in row-major order.  That is
    not the paper's uniform r-factor: its reserve law matches
    Curveball's in the table of CHANGES.md, and the exact verification
    report of the output is its certificate.  The Curveball sampler
    remains for the uses that need the uniform law.

    All m^2 blocks are built in one broadcast, audited together and
    laid out as the n x n mask, [x-1, y-1] for cell (x, y).  The same
    sigma, tau give the lazy `_retry_factors` iterator returned with it.
    """
    m, q, n = matrix.m, matrix.block_side, matrix.n
    rs = np.array(matrix.entries).reshape(-1, 1)
    seeds = [derive_seed(seed, t, i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
    sigma, tau = _relabelings(q, seeds)
    blocks = _permuted_circulants(q, rs, sigma, tau)
    ones, sums = blocks.view(np.uint8), np.min_scalar_type(q)
    if not (
        (ones.sum(axis=2, dtype=sums) == rs).all() and (ones.sum(axis=1, dtype=sums) == rs).all()
    ):
        raise RuntimeError(f"degree audit failed in retry {t}")
    cells = blocks.reshape(m, m, q, q).transpose(0, 2, 1, 3).reshape(n, n)
    return cells, _retry_factors(matrix, sigma, tau)


def _retry_factors(matrix: FeasibilityMatrix, sigma: np.ndarray, tau: np.ndarray) -> Iterator:
    """Yield the 1-factors of the retry that `_sample_retry` built from
    the relabelings sigma, tau, one at a time, with no matching run on
    its n x n cells: array f maps row x to column f[x-1], 1-based.  The
    row sums and column sums of the matrix must all be equal, to k; then
    there are k factors, disjoint, whose union is the retry.

    Block (i, j) is a relabeled circulant, so each of its r_{i,j} shift
    classes is a perfect matching of the block (`relabeled_circulants`).
    Step s takes a perfect matching pi of the support of the block
    entries not yet used, by `_hopcroft_karp` on m bits (one exists, by
    König, as every line of what is left sums to k - s).  Each block
    (i, pi(i)) gives its lowest unused shift class c, and row a of
    block-row i goes to column pi(i)*q + tau^-1[(sigma[a] + c) mod q]
    (0-based).  A factor is built only when it is asked for, and the
    first ones never depend on how many follow.
    """
    m, q = matrix.m, matrix.block_side
    tau_inv = np.argsort(tau, axis=1)
    left = [list(row) for row in matrix.entries]
    while any(map(any, left)):
        pi, _ = _hopcroft_karp(m, [sum(1 << j for j, v in enumerate(row) if v) for row in left])
        if -1 in pi:
            raise ConstructionError("block matrix has unequal line sums; no 1-factor left")
        # the shift classes below c are spent already
        c = np.array([[matrix.entries[i][j] - left[i][j]] for i, j in enumerate(pi)])
        for i, j in enumerate(pi):
            left[i][j] -= 1
        pi = np.array(pi)
        b = np.arange(m) * m + pi
        cols = tau_inv[b[:, None], (sigma[b] + c) % q] + (pi * q + 1)[:, None]
        yield cols.reshape(-1)


def biuniform_construct(
    n: int,
    k: int,
    matrix: FeasibilityMatrix,
    seed: int,
    max_retries: int = 64,
    target_reserve: int = 0,
) -> ConstructionCertificate:
    """A k-factor on [1,n]^2 from independently sampled per-block
    factors, retried until one verifies at the target reserve.

    The matrix lies on a grid n' = matrix.n <= n, and its row and column
    sums all equal one k' >= k.  Retry t samples a k'-factor on
    [1,n']^2 (`_sample_retry`): block (i, j) of the m x m decomposition
    receives an r_{i,j}-factor with seed derived from (seed, t, i, j), a
    relabeled circulant, not the paper's uniform r-factor (the uniform
    Curveball sampler remains for other uses), whose reserve law matches
    Curveball's in the table of CHANGES.md.  Each retry is spent
    (`_spend`): k' - k of its own shift-class 1-factors are dropped and
    the next n - n' each grow one row and column, which needs
    (k' - k) + (n - n') <= k'; with nothing to spend that is the retry
    as it was sampled.  The set is then verified once, at
    (k, target_reserve); only generic secants are random, and that exact
    report is the certificate.  On exhaustion the best-effort set (at n
    and k too) and its report are returned with certified=False.
    """
    _check_int(n=n, k=k, max_retries=max_retries)
    n_sample, k_sample = matrix.n, matrix.row_sums()[0]
    if matrix.row_sums() != [k_sample] * matrix.m or matrix.col_sums() != [k_sample] * matrix.m:
        raise ConstructionError(f"matrix row/column sums are not all equal: {matrix.entries}")
    drop, grow = k_sample - k, n - n_sample
    if min(drop, grow) < 0 or drop + grow > k_sample:
        raise ConstructionError(
            f"a {k_sample}-factor on [1,{n_sample}]^2 cannot be spent to k={k} on [1,{n}]^2: "
            f"it would drop {drop} and grow {grow} of its {k_sample} 1-factors"
        )
    if max_retries < 1:
        raise ConstructionError("max_retries must be >= 1")
    best: Optional[tuple[PointSet, VerificationReport]] = None
    reserves = []
    for t in range(max_retries):
        cells, factors = _sample_retry(matrix, seed, t)
        sample = _spend(cells, k_sample, drop, grow, factors)
        # the retry's mask must not stay alive through the sweep
        del cells, factors
        report = verify(sample, k, target_reserve)
        reserves.append(report.achieved_reserve)
        if report.passed or best is None or report.achieved_reserve > best[1].achieved_reserve:
            best = (sample, report)
        if report.passed:
            break
        # a retry that is not the best must not stay alive while the next is built
        del sample, report
    sample, report = best
    lineage = (("biuniform", {"n": n_sample, "k": k_sample, "m": matrix.m, "seed": seed,
                              "retry": t if report.passed else None}),)
    if drop or grow:
        lineage += (("spend", {"from": (n_sample, k_sample), "to": (n, k)}),)
    return ConstructionCertificate(seed, sample, report, lineage, tuple(reserves))


def _spend(cells: np.ndarray, k: int, drop: int, grow: int, factors: Iterable) -> PointSet:
    """Spend drop + grow 1-factors of a k-factor on [1,n]^2, given as its
    n x n bool mask (`PointSet.mask`), in one step.

    The first drop + grow 1-factors are taken from `factors`, any
    iterable of length-n sequences that map row x to column f[x-1]
    (1-based): `_retry_factors` for a bi-uniform retry, or
    `iter_matchings(BipartiteFactor(k, points))` for any k-factor.  They
    are audited on the mask: there must be enough of them, each a
    permutation of [1, n], every cell in the set and no cell in two of
    them.  The mask is copied once into an (n + grow)^2 mask, where the
    first `drop` are erased; then the i-th of the next `grow` moves its
    k - drop cells (x, y) of smallest x to (n+i, y) and (x, n+i).  The
    result, a (k - drop)-factor of [1, n + grow]^2, is read off that
    mask (`PointSet.from_mask`); with nothing to spend it is the input's
    cells.  The reserve is not checked here; `spend` checks it.
    """
    n, k_new = len(cells), k - drop
    # ys[t, a-1] + 1 is the column of row a in the t-th factor
    ys = [np.asarray(f, dtype=np.int64) for f in islice(factors, drop + grow)]
    if len(ys) < drop + grow:
        raise ConstructionError(f"{drop + grow} 1-factors needed, {len(ys)} given")
    if not all(f.shape == (n,) and (np.sort(f) == np.arange(1, n + 1)).all() for f in ys):
        raise ConstructionError(f"a 1-factor is not a permutation of [1, {n}]")
    ys = np.array(ys, dtype=np.int64).reshape(drop + grow, n) - 1
    rows = np.arange(n)
    if not cells[rows, ys].all():
        raise ConstructionError("a 1-factor has a cell outside the set")
    # two factors share a cell only if they send some row to one column
    ranked = np.sort(ys, axis=0)
    if (ranked[1:] == ranked[:-1]).any():
        raise ConstructionError("two 1-factors share a cell")
    out = np.zeros((n + grow, n + grow), dtype=bool)
    out[:n, :n] = cells
    out[rows, ys[:drop]] = False
    donors, donated = rows[:k_new], ys[drop:, :k_new]
    new = n + np.arange(grow)[:, None]
    out[donors, donated] = False
    out[new, donated] = True
    out[donors, new] = True
    return PointSet.from_mask(out)


def spend(
    points: PointSet,
    report: VerificationReport,
    k: int,
    n: int,
    factors: Iterable,
) -> tuple[PointSet, VerificationReport]:
    """Spend the verified reserve of a `report.k`-factor on
    [1, points.n]^2 to make a k-factor on [1,n]^2: drop report.k - k
    1-factors and grow n - points.n rows and columns (`_spend`).  Each
    dropped factor costs 1 of reserve, each new row and column 2.

    The 1-factors are the first drop + grow of `factors`, for instance
    `iter_matchings(BipartiteFactor(report.k, points))`, which extracts
    them by Hopcroft-Karp.  `_spend` audits each one it uses.
    (`biuniform_construct` spends each retry with its own shift classes
    before its one sweep, so it has no report to pass here.)

    `report` is the passing verification report of `points`, trusted,
    not recomputed: its `axis_max` must be at most its k and its
    `achieved_reserve` at least the reserve spent.  With len(points) =
    report.k * points.n that makes every row and column hold exactly
    report.k points.  The output is verified at reserve 0; that report
    is the certificate, so a wrong input report can make the output
    fail, never pass unchecked.  When nothing is spent the set is
    returned unchanged and not swept again, and no factor is read: the
    input report comes back re-targeted to reserve 0.
    """
    drop, grow = report.k - k, n - points.n
    if drop < 0 or grow < 0:
        raise ConstructionError(
            f"spending reserve cannot raise k ({report.k} -> {k}) or shrink n ({points.n} -> {n})"
        )
    if report.axis_max > report.k or report.achieved_reserve < drop + 2 * grow:
        raise ConstructionError(
            f"input does not have reserve {drop + 2 * grow}: {report.summary()}"
        )
    if len(points) != report.k * points.n:
        raise ConstructionError(
            f"point set is not a {report.k}-factor per row/column: "
            f"{len(points)} points on [1,{points.n}]^2"
        )
    if not drop and not grow:
        return points, replace(report, required_reserve=0)
    out = _spend(points.mask(), report.k, drop, grow, factors)
    return out, verify(out, k, 0)


def pipeline(
    n: int,
    k: int,
    seed: int,
    strict: bool = False,
    max_retries: int = 64,
    C: float = 12.5,
) -> ConstructionCertificate:
    """End-to-end construction of a certified no-(k+1)-in-line set of
    size k*n on [1,n]^2.

    Large k (k >= 2n/3) routes to the explicit construction.  Otherwise
    n and k are rounded down to n' and up to k', multiples of 4 and 10,
    and `biuniform_construct(n, k, feasibility_matrix_4x4(n', k'), ...)`
    samples each retry at (n', k'), spends it back to (n, k) with its own
    shift-class 1-factors (no matching runs on the n' x n' set), and
    sweeps the spent set once at reserve 0.  Its retries are relabeled
    circulants, not the paper's uniform factors (`_sample_retry`;
    Curveball remains for the uniform-law uses), with the reserve law of
    the table in CHANGES.md; the exact verification report is the
    certificate.  RetriesExhausted carries the best spent set.  strict
    additionally enforces n >= 68 and C*sqrt(n ln n) <= k (the checkable
    hypotheses of the regime where success is guaranteed
    asymptotically).
    """
    _check_int(n=n, k=k, max_retries=max_retries)
    if not (1 <= k <= n):
        raise ConstructionError(f"need 1 <= k <= n, got k={k}, n={n}")
    if strict:
        if n < 68:
            raise ConstructionError(f"strict mode needs n >= 68, got {n}")
        if not 0 < C < inf:
            raise ConstructionError(f"C must be positive and finite, got {C}")
        bound = C * sqrt(n * log(n))
        if k < bound:
            raise ConstructionError(
                f"strict mode needs k >= C*sqrt(n ln n) = {bound:.1f}, got {k}"
            )

    if 3 * k >= 2 * n:
        cert = explicit_certificate(n, k, seed)
        assert cert.certified, cert.report.summary()
        return cert

    n_round = 4 * (n // 4)
    k_round = 10 * ceil(k / 10)
    if 6 * k_round > 5 * n_round:
        raise ConstructionError(
            f"rounded k={k_round} exceeds 5/6 of rounded n={n_round}"
            + (" (strict chain broken)" if strict else "")
        )
    matrix = feasibility_matrix_4x4(n_round, k_round)
    cert = biuniform_construct(n, k, matrix, seed, max_retries=max_retries)
    if not cert.certified:
        raise RetriesExhausted(cert)
    return cert
